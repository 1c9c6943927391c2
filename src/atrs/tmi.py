"""Triangular matrix interpretations over the naturals.

A symbol of arity n is interpreted as x1..xn |-> F1*x1 + ... + Fn*xn + f
with square coefficient matrices Fi and a constant vector f, all entries
natural numbers.  Monotone means every Fi has top-left entry >= 1;
triangular means every Fi is upper triangular with diagonal entries <= 1.
A monotone triangular interpretation of dimension d that strictly orients
every rule bounds the derivational complexity by O(n^d).

Arithmetic is exact: plain Python integers, no overflow, no rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .terms import Rule, Symbol, Term, Trs, Var, term_symbols

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


class InterpretationError(ValueError):
    """Malformed interpretation data."""


class MissingSymbolError(InterpretationError):
    """A term uses a symbol the interpretation does not cover."""


class SearchBudgetExhausted(RuntimeError):
    """The certificate search tried more entry choices than its budget."""

    def __init__(self, attempts: int):
        super().__init__(
            f"search budget exhausted after {attempts} entry choices"
            " (matrix or vector entry values tried, in candidate order)"
        )
        self.attempts = attempts


def zero_vector(dim: int) -> Vector:
    return (0,) * dim

def zero_matrix(dim: int) -> Matrix:
    return ((0,) * dim,) * dim

def identity(dim: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))

def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))

def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(vec_add(r, s) for r, s in zip(a, b))

def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )

def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)

def mat_ge(a: Matrix, b: Matrix) -> bool:
    return all(x >= y for r, s in zip(a, b) for x, y in zip(r, s))

def vec_strict_gt(u: Vector, v: Vector) -> bool:
    """First component strictly greater, the rest componentwise >=."""
    return u[0] > v[0] and all(a >= b for a, b in zip(u[1:], v[1:]))


#: Interpretation of one symbol: per-argument matrices and the constant vector.
SymbolInterp = tuple[tuple[Matrix, ...], Vector]


class MatrixInterp:
    """A matrix interpretation: dimension plus one entry per symbol."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: Mapping[Symbol, SymbolInterp]):
        if dim < 1:
            raise InterpretationError("dimension must be at least 1")
        self.dim = dim
        self.entries: dict[Symbol, SymbolInterp] = dict(entries)
        for sym, (mats, vec) in self.entries.items():
            if len(mats) != sym.arity:
                raise InterpretationError(
                    f"{sym.name}/{sym.arity}: {len(mats)} matrices for arity {sym.arity}"
                )
            for m in mats:
                self._check_matrix(sym, m)
            self._check_vector(sym, vec)

    def _check_matrix(self, sym: Symbol, m: Matrix) -> None:
        if len(m) != self.dim or any(len(row) != self.dim for row in m):
            raise InterpretationError(f"{sym.name}: matrix is not {self.dim}x{self.dim}")
        if any(not isinstance(x, int) or x < 0 for row in m for x in row):
            raise InterpretationError(f"{sym.name}: matrix entries must be naturals")

    def _check_vector(self, sym: Symbol, v: Vector) -> None:
        if len(v) != self.dim:
            raise InterpretationError(f"{sym.name}: vector length is not {self.dim}")
        if any(not isinstance(x, int) or x < 0 for x in v):
            raise InterpretationError(f"{sym.name}: vector entries must be naturals")

    def for_symbol(self, sym: Symbol) -> SymbolInterp:
        try:
            return self.entries[sym]
        except KeyError:
            raise MissingSymbolError(
                f"no interpretation for {sym.name}/{sym.arity}"
            ) from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatrixInterp):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __repr__(self) -> str:
        return f"MatrixInterp(dim={self.dim}, symbols={len(self.entries)})"


@dataclass
class LinearForm:
    """A vector-valued linear polynomial: sum of coeffs[x]*x plus const."""

    coeffs: dict[str, Matrix]
    const: Vector

    def coeff(self, name: str, dim: int) -> Matrix:
        return self.coeffs.get(name, zero_matrix(dim))


def _linearize(entries: Mapping[Symbol, SymbolInterp], dim: int, t: Term) -> LinearForm:
    if isinstance(t, Var):
        return LinearForm({t.name: identity(dim)}, zero_vector(dim))
    try:
        mats, vec = entries[t.symbol]
    except KeyError:
        raise MissingSymbolError(
            f"no interpretation for {t.symbol.name}/{t.symbol.arity}"
        ) from None
    coeffs: dict[str, Matrix] = {}
    const = vec
    for m, arg in zip(mats, t.args):
        if isinstance(arg, Var):
            # a variable contributes m times the identity and no constant
            name = arg.name
            coeffs[name] = mat_add(coeffs[name], m) if name in coeffs else m
            continue
        sub = _linearize(entries, dim, arg)
        const = vec_add(const, mat_vec(m, sub.const))
        for name, c in sub.coeffs.items():
            prod = mat_mul(m, c)
            coeffs[name] = mat_add(coeffs[name], prod) if name in coeffs else prod
    return LinearForm(coeffs, const)


def linearize(interp: MatrixInterp, t: Term) -> LinearForm:
    """The interpretation of t as a linear form in its variables."""
    return _linearize(interp.entries, interp.dim, t)


def evaluate(interp: MatrixInterp, t: Term, assignment: Mapping[str, Vector]) -> Vector:
    """The value of t under a concrete variable assignment."""
    if isinstance(t, Var):
        try:
            return assignment[t.name]
        except KeyError:
            raise InterpretationError(f"no value assigned to variable {t.name}") from None
    mats, vec = interp.for_symbol(t.symbol)
    out = vec
    for m, arg in zip(mats, t.args):
        out = vec_add(out, mat_vec(m, evaluate(interp, arg, assignment)))
    return out


def _orientation_failure(
    high: Mapping[Symbol, SymbolInterp], low: Mapping[Symbol, SymbolInterp],
    dim: int, rule: Rule,
) -> str | None:
    """Why [lhs] under high does not lie strictly above [rhs] under low for
    every assignment of naturals, or None when it does.

    check_tmi passes one interpretation as both; search_tmi passes the
    largest and the smallest completion of a partial one.  The constant
    parts are compared first, then the coefficients in variable name order.
    """
    left = _linearize(high, dim, rule.lhs)
    right = _linearize(low, dim, rule.rhs)
    if not vec_strict_gt(left.const, right.const):
        return "constant part does not decrease strictly"
    for name in sorted(left.coeffs.keys() | right.coeffs.keys()):
        if not mat_ge(left.coeff(name, dim), right.coeff(name, dim)):
            return f"coefficient of {name} is not dominated"
    return None


def strictly_oriented(interp: MatrixInterp, rule: Rule) -> bool:
    """True iff [lhs] > [rhs] holds for every assignment of naturals, decided
    by componentwise comparison of coefficients and constants."""
    entries = interp.entries
    return _orientation_failure(entries, entries, interp.dim, rule) is None


def _monotonicity_violation(interp: MatrixInterp) -> tuple[Symbol, int] | None:
    for sym in sorted(interp.entries):
        mats, _ = interp.entries[sym]
        for i, m in enumerate(mats):
            if m[0][0] < 1:
                return sym, i
    return None


def _triangularity_violation(interp: MatrixInterp) -> tuple[Symbol, int] | None:
    for sym in sorted(interp.entries):
        mats, _ = interp.entries[sym]
        for i, m in enumerate(mats):
            for r in range(interp.dim):
                if m[r][r] > 1 or any(m[r][c] != 0 for c in range(r)):
                    return sym, i
    return None


def is_monotone(interp: MatrixInterp) -> bool:
    """Every coefficient matrix has top-left entry at least 1."""
    return _monotonicity_violation(interp) is None


def is_triangular(interp: MatrixInterp) -> bool:
    """Every coefficient matrix is upper triangular with diagonal <= 1."""
    return _triangularity_violation(interp) is None


@dataclass(frozen=True)
class Certificate:
    """A machine-checked complexity statement about a rewrite system."""

    kind: str
    degree: int | None = None
    note: str = ""


@dataclass
class TmiVerdict:
    """Outcome of checking an interpretation against a system.

    On success, certificate bounds the derivational complexity.  On failure,
    failure says which condition broke first and failing_rule_index names the
    rule when the condition was an orientation.
    """

    ok: bool
    certificate: Certificate | None = None
    failure: str | None = None
    failing_rule_index: int | None = None


def check_tmi(interp: MatrixInterp, trs: Trs) -> TmiVerdict:
    """Check monotonicity, triangularity, and strict orientation of all rules.

    A symbol occurring in the rules but absent from the interpretation raises
    MissingSymbolError; that is an input mismatch, not a refutation.
    """
    bad = _monotonicity_violation(interp)
    if bad is not None:
        sym, i = bad
        return TmiVerdict(
            ok=False,
            failure=f"not monotone: argument {i + 1} of {sym.name}/{sym.arity}"
            " has top-left entry 0",
        )
    bad = _triangularity_violation(interp)
    if bad is not None:
        sym, i = bad
        return TmiVerdict(
            ok=False,
            failure=f"not triangular: argument {i + 1} of {sym.name}/{sym.arity}",
        )
    # every rule is decided before the first failure is reported, so a symbol
    # missing from the interpretation raises even after an unoriented rule
    entries, dim = interp.entries, interp.dim
    failures = [_orientation_failure(entries, entries, dim, r) for r in trs.rules]
    for i, detail in enumerate(failures):
        if detail is not None:
            return TmiVerdict(
                ok=False,
                failure=f"rule {i + 1} not strictly oriented: {detail}",
                failing_rule_index=i,
            )
    cert = Certificate("upper-bound", dim, f"dc(n) in O(n^{dim})")
    return TmiVerdict(ok=True, certificate=cert)


def _search_schedule(trs: Trs) -> list[Symbol]:
    """Symbols in search order: repeatedly complete the rule missing the
    fewest symbols, its cheapest symbols first, so that rules become exact
    as early as possible; symbols outside the rules come last."""
    rule_syms = [term_symbols(r.lhs) | term_symbols(r.rhs) for r in trs.rules]
    symbols: list[Symbol] = []
    assigned: set[Symbol] = set()
    unready = list(range(len(trs.rules)))
    while True:
        unready = [i for i in unready if not rule_syms[i] <= assigned]
        if not unready:
            break
        pick = min(unready, key=lambda i: (len(rule_syms[i] - assigned), i))
        for sym in sorted(rule_syms[pick] - assigned, key=lambda s: (s.arity, s.name)):
            symbols.append(sym)
            assigned.add(sym)
    symbols.extend(sorted(trs.signature - assigned))
    return symbols


def search_tmi(
    trs: Trs, dim: int, coeff_bound: int, budget: int
) -> MatrixInterp | None:
    """Exhaustive search for an interpretation certifying trs.

    Candidates are monotone and triangular by construction, with all entries
    bounded by coeff_bound: below the diagonal 0, the top-left entry 1, the
    other diagonal entries 0 or 1.  The search picks one free matrix or
    vector entry at a time, in a fixed order, trying values in increasing
    order.  Symbols come in an order that makes rules exact early; within a
    symbol the last argument's matrix comes first, then the earlier
    arguments' matrices, then the constant vector; within a matrix or vector
    the entries come row by row.  After each choice every rule that uses the
    symbol is tested with the lhs at the largest and the rhs at the smallest
    value any completion can give (entries are naturals, so both sides grow
    with every entry), and the branch is cut as soon as one fails.

    The budget counts entry choices: each value tried for one entry, in this
    fixed order, is one choice.  Returns the first certificate in candidate
    order, re-checked by check_tmi, or None once the whole space is refuted.
    Raises SearchBudgetExhausted when more than budget entry choices would be
    tried, and RuntimeError if a found interpretation fails its check.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if coeff_bound < 1:
        raise ValueError("coefficient bound must be at least 1")
    if budget < 1:
        raise ValueError("budget must be positive")
    symbols = _search_schedule(trs)
    touching: dict[Symbol, list[Rule]] = {sym: [] for sym in symbols}
    for rule in trs.rules:
        for sym in term_symbols(rule.lhs) | term_symbols(rule.rhs):
            touching[sym].append(rule)

    # each symbol's matrices and vector as mutable rows, which the search
    # writes in place and _linearize reads; lows holds every open entry at its
    # smallest and highs at its largest value, and they agree on assigned ones
    mat_low = [[int(r == c == 0) for c in range(dim)] for r in range(dim)]
    mat_high = [
        [1 if r == c else coeff_bound if c > r else 0 for c in range(dim)]
        for r in range(dim)
    ]
    lows: dict[Symbol, tuple[list, list[int]]] = {}
    highs: dict[Symbol, tuple[list, list[int]]] = {}
    # (rules using the symbol, low row, high row, column, largest value) per
    # open entry, in branching order
    slots: list[tuple[list[Rule], list[int], list[int], int, int]] = []
    for sym in symbols:
        args = range(sym.arity)
        lows[sym] = [[r[:] for r in mat_low] for _ in args], [0] * dim
        highs[sym] = [[r[:] for r in mat_high] for _ in args], [coeff_bound] * dim
        (low_mats, low_vec), (high_mats, high_vec) = lows[sym], highs[sym]
        rows = [row for a in reversed(args) for row in zip(low_mats[a], high_mats[a])]
        rows.append((low_vec, high_vec))
        slots.extend(
            (touching[sym], lo, hi, c, hi[c])
            for lo, hi in rows for c in range(dim) if hi[c] > lo[c]
        )

    # depth-first over slots without recursion: chosen[k] is the value of
    # slots[k], or -1 while it is open
    chosen = [-1] * len(slots)
    attempts = 0
    k = 0
    while k < len(slots):
        rules, low, high, c, top = slots[k]
        value = chosen[k] + 1
        if value > top:
            chosen[k] = -1
            low[c], high[c] = 0, top
            k -= 1
            if k < 0:
                return None
            continue
        attempts += 1
        if attempts > budget:
            raise SearchBudgetExhausted(attempts)
        chosen[k] = low[c] = high[c] = value
        if all(_orientation_failure(highs, lows, dim, r) is None for r in rules):
            k += 1

    found = MatrixInterp(dim, {
        sym: (tuple(tuple(map(tuple, m)) for m in mats), tuple(vec))
        for sym, (mats, vec) in lows.items()
    })
    verdict = check_tmi(found, trs)
    if not verdict.ok:
        raise RuntimeError(
            f"search found an interpretation that fails its check: {verdict.failure}"
        )
    return found
