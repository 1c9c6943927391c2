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
from itertools import chain, count
from math import inf
from operator import add, ge, mul
from typing import Callable, Mapping, Sequence

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
    return tuple(map(add, u, v))

def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(map(vec_add, a, b))

def mat_ge(a: Matrix, b: Matrix) -> bool:
    return all(map(ge, chain(*a), chain(*b)))

def vec_strict_gt(u: Vector, v: Vector) -> bool:
    """First component strictly greater, the rest componentwise >=."""
    return u[0] > v[0] and all(map(ge, u, v))


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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatrixInterp):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __repr__(self) -> str:
        return f"MatrixInterp(dim={self.dim}, symbols={len(self.entries)})"


#: A vector-valued linear polynomial: the coefficient matrix of each variable
#: and the constant vector.
LinearForm = tuple[dict[str, Matrix], Vector]


def _linearize(entries: Mapping[Symbol, SymbolInterp], dim: int, t: Term) -> LinearForm:
    if isinstance(t, Var):
        return {t.name: identity(dim)}, zero_vector(dim)
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
        sub_coeffs, sub_const = _linearize(entries, dim, arg)
        const = tuple(map(add, const, [sum(map(mul, row, sub_const)) for row in m]))
        for name, c in sub_coeffs.items():
            cols = tuple(zip(*c))
            prod = tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in m])
            coeffs[name] = mat_add(coeffs[name], prod) if name in coeffs else prod
    return coeffs, const


def _orientation_failure(
    entries: Mapping[Symbol, SymbolInterp], dim: int, rule: Rule
) -> str | None:
    """Why [lhs] does not lie strictly above [rhs] for every assignment of
    naturals, or None when it does.  The constant parts are compared first,
    then the coefficients in variable name order."""
    left, left_const = _linearize(entries, dim, rule.lhs)
    right, right_const = _linearize(entries, dim, rule.rhs)
    if not vec_strict_gt(left_const, right_const):
        return "constant part does not decrease strictly"
    zero = zero_matrix(dim)
    for name in sorted(left.keys() | right.keys()):
        if not mat_ge(left.get(name, zero), right.get(name, zero)):
            return f"coefficient of {name} is not dominated"
    return None


def shape_bounds(dim: int, cap: float) -> tuple[Matrix, Matrix]:
    """The smallest and the largest coefficient matrix, entry by entry, of a
    monotone triangular interpretation of dimension dim: the top-left entry
    is 1, the other diagonal entries 0 or 1, the entries below the diagonal
    0, and the entries above it at most cap (math.inf for no cap)."""
    low = tuple(tuple(int(r == c == 0) for c in range(dim)) for r in range(dim))
    high = tuple(
        tuple(1 if r == c else cap if c > r else 0 for c in range(dim))
        for r in range(dim)
    )
    return low, high


@dataclass(frozen=True)
class Certificate:
    """A machine-checked complexity statement about a rewrite system."""

    kind: str
    degree: int | None = None
    note: str = ""


@dataclass
class TmiVerdict:
    """Outcome of checking an interpretation against a system.

    ok holds exactly when there is a certificate, which bounds the
    derivational complexity.  Otherwise failure says which condition broke
    first and failing_rule_index names the rule if it was an orientation.
    """

    certificate: Certificate | None = None
    failure: str | None = None
    failing_rule_index: int | None = None

    @property
    def ok(self) -> bool:
        return self.certificate is not None


def check_tmi(interp: MatrixInterp, trs: Trs) -> TmiVerdict:
    """Check monotonicity, triangularity, and strict orientation of all rules.

    A symbol occurring in the rules but absent from the interpretation raises
    MissingSymbolError; that is an input mismatch, not a refutation.
    """
    # every matrix is tested against the lower bound before any against the
    # upper one, symbols in sorted order and arguments in order
    low, high = shape_bounds(interp.dim, inf)
    for fits, failure in (
        (lambda m: mat_ge(m, low),
         "not monotone: argument {} of {} has top-left entry 0"),
        (lambda m: mat_ge(high, m), "not triangular: argument {} of {}"),
    ):
        for sym in sorted(interp.entries):
            for i, m in enumerate(interp.entries[sym][0], 1):
                if not fits(m):
                    return TmiVerdict(failure=failure.format(i, sym))
    # every rule is decided before the first failure is reported, so a symbol
    # missing from the interpretation raises even after an unoriented rule
    entries, dim = interp.entries, interp.dim
    failures = [_orientation_failure(entries, dim, r) for r in trs.rules]
    for i, detail in enumerate(failures):
        if detail is not None:
            return TmiVerdict(failure=f"rule {i + 1} not strictly oriented: {detail}",
                              failing_rule_index=i)
    cert = Certificate("upper-bound", dim, f"dc(n) in O(n^{dim})")
    return TmiVerdict(certificate=cert)


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


class _Slot(int):
    """The number of an entry the search leaves open: its index in hi and lo."""


#: A scalar in generated source: an int literal, or the text of a local or of
#: an entry of hi or lo.
_Value = int | str


def _slot_table(
    symbols: Sequence[Symbol], dim: int, coeff_bound: int
) -> tuple[dict[Symbol, SymbolInterp], list[int], list[Symbol]]:
    """The search's shape of each symbol, and the cap top[k] and the symbol
    owner[k] of each slot k.  A shape has an int where the bounds fix the
    entry and a _Slot where they leave it open.  Slots are numbered in
    branching order: symbols in the order given; within a symbol the last
    argument's matrix first, then the earlier ones, then the vector; row by
    row inside each."""
    row_bounds = list(zip(*shape_bounds(dim, coeff_bound)))
    top: list[int] = []
    owner: list[Symbol] = []

    def entry(low: int, high: int) -> int:
        if low == high:
            return low
        top.append(high)
        return _Slot(len(top) - 1)

    shape: dict[Symbol, SymbolInterp] = {}
    for sym in symbols:
        mats = [tuple(tuple(map(entry, low, high)) for low, high in row_bounds)
                for _ in range(sym.arity)]
        shape[sym] = tuple(reversed(mats)), tuple(entry(0, coeff_bound) for _ in range(dim))
        owner += [sym] * (len(top) - len(owner))
    return shape, top, owner


def _filled(shape: SymbolInterp, slot: Callable[[int], _Value]) -> SymbolInterp:
    """shape with slot(k) in place of each slot k."""
    def entry(e: int) -> _Value:
        return slot(e) if type(e) is _Slot else e

    mats, vec = shape
    return (tuple(tuple(tuple(map(entry, row)) for row in m) for m in mats),
            tuple(map(entry, vec)))


def _times(a: _Value, b: _Value) -> _Value:
    """The product a*b, with a literal 0 or 1 folded away."""
    if a == 0 or b == 0:
        return 0
    if a == 1:
        return b
    if b == 1:
        return a
    return f"{a}*{b}"


def _comparison(a: _Value, op: str, b: _Value) -> bool | str:
    """a op b as source text, or its truth when that is known already: both
    sides are literals, or b is a literal 0 under >= (values are naturals)."""
    if type(a) is int and type(b) is int:
        return a > b if op == ">" else a >= b
    if op == ">=" and b == 0:
        return True
    return f"{a} {op} {b}"


def _test_source(
    name: str, rule: Rule, dim: int, shape: Mapping[Symbol, SymbolInterp]
) -> str:
    """The source of the function name(), the compiled test of one rule: the
    lhs reads its open entries from hi and the rhs from lo."""
    # the statements that compute the constant part (key None) and the
    # coefficients of each variable (key: its name)
    sections: dict[str | None, list[str]] = {}
    fresh = count(1)
    unit, zero = identity(dim), zero_matrix(dim)

    def total(section: str | None, terms: list[_Value]) -> _Value:
        """The sum of terms, through a new local unless it folds to a
        literal or to a single local or entry."""
        parts = [t for t in terms if type(t) is str]
        literal = sum(t for t in terms if type(t) is int)
        if not parts:
            return literal
        if literal:
            parts.append(str(literal))
        if len(parts) == 1 and "*" not in parts[0]:
            return parts[0]
        local = f"v{next(fresh)}"
        sections.setdefault(section, []).append(f"{local} = {' + '.join(parts)}")
        return local

    def linear(t: Term, side: str):
        """[t] as values, shaped like _linearize's result."""
        if isinstance(t, Var):
            return {t.name: unit}, [0] * dim
        mats, const = _filled(shape[t.symbol], lambda k: f"{side}[{k}]")
        coeffs: dict[str, list[list[_Value]]] = {}
        for m, arg in zip(mats, t.args):
            sub_coeffs, sub_const = linear(arg, side)
            const = [total(None, [const[r], *map(_times, m[r], sub_const)])
                     for r in range(dim)]
            for x, c in sub_coeffs.items():
                acc = coeffs.get(x, zero)
                coeffs[x] = [[total(x, [acc[r][j], *map(_times, m[r], col)])
                              for j, col in enumerate(zip(*c))] for r in range(dim)]
        return coeffs, const

    left, left_const = linear(rule.lhs, "hi")
    right, right_const = linear(rule.rhs, "lo")
    checks = {None: [(left_const[0], ">", right_const[0])]
              + [(a, ">=", b) for a, b in zip(left_const[1:], right_const[1:])]}
    # a variable only on the lhs has a coefficient >= 0 on the rhs: no check
    for x, c in right.items():
        checks[x] = [(a, ">=", b) for a, b in zip(chain(*left.get(x, zero)), chain(*c))]
    lines: list[str] = []
    for section, comparisons in checks.items():
        known = [_comparison(*c) for c in comparisons]
        if False in known:
            lines = ["return False"]
            break
        conditions = [k for k in known if k is not True]
        if conditions:
            lines += sections.get(section, [])
            lines.append(f"if not ({' and '.join(conditions)}): return False")
    else:
        lines.append("return True")
    return f"def {name}():\n" + "".join(f"    {line}\n" for line in lines)


def _orientation_tests(
    rules: Sequence[Rule], dim: int, shape: Mapping[Symbol, SymbolInterp],
    hi: list[int], lo: list[int],
) -> list[Callable[[], bool]]:
    """One compiled test per rule: does [lhs] lie strictly above [rhs] for
    every assignment of naturals, with each open entry k at hi[k] in the lhs
    and at lo[k] in the rhs?  It is the question _orientation_failure
    answers, asked of two interpretations.

    A test reads hi and lo each time it runs; an entry the shape fixes is a
    literal in its source.  Its body is straight-line scalar arithmetic,
    products by a literal 0 or 1 dropped: the constant part first, then the
    coefficients of each variable that occurs on the rhs, each part checked
    as soon as it is known.  The source names entries by slot number and a
    test by its rule's index, so no text of the input enters it.
    """
    source = "".join(
        _test_source(f"t{index}", rule, dim, shape) for index, rule in enumerate(rules)
    )
    namespace = {"hi": hi, "lo": lo}
    exec(compile(source, "<orientation tests>", "exec"), namespace)
    return [namespace[f"t{index}"] for index in range(len(rules))]


def search_tmi(
    trs: Trs, dim: int, coeff_bound: int, budget: int
) -> MatrixInterp | None:
    """Exhaustive search for an interpretation certifying trs.

    Candidate matrices lie between shape_bounds(dim, coeff_bound), so they
    are monotone and triangular by construction, and vector entries go up to
    coeff_bound.  The search assigns the slots of _slot_table one at a time,
    in order, trying values in increasing order; hi[k] and lo[k] hold the
    largest and the smallest value any completion can give slot k.  After
    each choice the tests compiled by _orientation_tests check every rule
    that uses the slot's owner, the lhs under hi and the rhs under lo
    (entries are naturals, so both sides grow with every entry), and the
    branch is cut as soon as one fails.

    The budget counts entry choices: each value tried for one entry, in this
    fixed order, is one choice.  Returns the first certificate in candidate
    order, re-checked by check_tmi with the interpreted _orientation_failure,
    which shares no code with the compiled tests, or None once the whole
    space is refuted.
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
    shape, top, owner = _slot_table(symbols, dim, coeff_bound)
    # chosen[k] is the value of slot k, or -1 while it is open
    hi, lo, chosen = list(top), [0] * len(top), [-1] * len(top)
    touching: dict[Symbol, list[Callable[[], bool]]] = {sym: [] for sym in symbols}
    for rule, test in zip(trs.rules, _orientation_tests(trs.rules, dim, shape, hi, lo)):
        for sym in term_symbols(rule.lhs) | term_symbols(rule.rhs):
            touching[sym].append(test)

    # depth-first over the slots without recursion
    attempts = k = 0
    while k < len(top):
        value = chosen[k] + 1
        if value > top[k]:
            chosen[k], lo[k], hi[k] = -1, 0, top[k]
            k -= 1
            if k < 0:
                return None
            continue
        attempts += 1
        if attempts > budget:
            raise SearchBudgetExhausted(attempts)
        chosen[k] = lo[k] = hi[k] = value
        for test in touching[owner[k]]:
            if not test():
                break
        else:
            k += 1

    found = MatrixInterp(dim, {
        sym: _filled(entries, lo.__getitem__) for sym, entries in shape.items()})
    verdict = check_tmi(found, trs)
    if not verdict.ok:
        raise RuntimeError(
            f"search found an interpretation that fails its check: {verdict.failure}"
        )
    return found
