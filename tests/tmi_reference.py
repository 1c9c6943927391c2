"""The generate-and-test certificate search, kept as the reference that
atrs.tmi.search_tmi must agree with.

It enumerates whole symbol interpretations, decodes candidate j of a
symbol into one matrix per argument and a constant vector, and checks a
rule once all of its symbols are assigned.  Its budget counts whole
symbol interpretations, not entry choices.
"""

from __future__ import annotations

import itertools

from atrs.terms import Fun, Rule, Symbol, Trs
from atrs.tmi import (
    Matrix,
    MatrixInterp,
    SearchBudgetExhausted,
    SymbolInterp,
    Vector,
    _linearize,
    mat_ge,
    vec_strict_gt,
)


def _candidate_matrices(dim: int, bound: int) -> list[Matrix]:
    """All monotone upper triangular matrices with entries up to bound,
    in a fixed order with the all-zero-off-diagonal candidates first."""
    ranges = []
    for r in range(dim):
        for c in range(dim):
            if c < r:
                ranges.append((0,))
            elif c == r:
                # monotonicity forces the top-left entry to 1, triangularity
                # caps the other diagonal entries at 1
                ranges.append((1,) if r == 0 else (0, 1))
            else:
                ranges.append(tuple(range(bound + 1)))
    out = []
    for flat in itertools.product(*ranges):
        out.append(tuple(flat[r * dim : (r + 1) * dim] for r in range(dim)))
    return out


def _candidate_vectors(dim: int, bound: int) -> list[Vector]:
    return [v for v in itertools.product(range(bound + 1), repeat=dim)]


def search_tmi(
    trs: Trs, dim: int, coeff_bound: int, budget: int
) -> MatrixInterp | None:
    """Exhaustive search for an interpretation certifying trs.

    Candidates are monotone and triangular by construction, with all entries
    bounded by coeff_bound; only strict orientation is tested.  Symbols are
    assigned in an order that makes each rule checkable as early as possible,
    and each rule is checked as soon as all its symbols are assigned.  Returns
    the first certificate in candidate order, or None once the whole space is
    refuted.  Raises SearchBudgetExhausted when more than budget candidates
    would be tried.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if coeff_bound < 1:
        raise ValueError("coefficient bound must be at least 1")
    if budget < 1:
        raise ValueError("budget must be positive")
    mats = _candidate_matrices(dim, coeff_bound)
    vecs = _candidate_vectors(dim, coeff_bound)

    rule_syms = []
    for rule in trs.rules:
        syms: set[Symbol] = set()
        for t in (rule.lhs, rule.rhs):
            stack = [t]
            while stack:
                s = stack.pop()
                if isinstance(s, Fun):
                    syms.add(s.symbol)
                    stack.extend(s.args)
        rule_syms.append(syms)

    # schedule: repeatedly complete the rule missing the fewest symbols, its
    # cheapest symbols first, so the search prunes as high up as possible
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
    for sym in sorted(trs.signature - assigned):
        symbols.append(sym)

    # ready[k]: rules checkable once symbols[0..k] are assigned, and not sooner
    ready: list[list[int]] = [[] for _ in symbols]
    assigned = set()
    for k, sym in enumerate(symbols):
        assigned.add(sym)
        for i, syms in enumerate(rule_syms):
            if sym in syms and syms <= assigned:
                ready[k].append(i)

    entries: dict[Symbol, SymbolInterp] = {}
    attempts = [0]

    def decode(sym: Symbol, j: int) -> SymbolInterp:
        j, v = divmod(j, len(vecs))
        picked = []
        for _ in range(sym.arity):
            j, m = divmod(j, len(mats))
            picked.append(mats[m])
        return tuple(picked), vecs[v]

    def assign(k: int) -> MatrixInterp | None:
        if k == len(symbols):
            return MatrixInterp(dim, entries)
        sym = symbols[k]
        count = len(vecs) * len(mats) ** sym.arity
        for j in range(count):
            attempts[0] += 1
            if attempts[0] > budget:
                raise SearchBudgetExhausted(attempts[0])
            entries[sym] = decode(sym, j)
            if all(
                orientation_ok(trs.rules[i]) for i in ready[k]
            ):
                found = assign(k + 1)
                if found is not None:
                    return found
        del entries[sym]
        return None

    def orientation_ok(rule: Rule) -> bool:
        left = _linearize(entries, dim, rule.lhs)
        right = _linearize(entries, dim, rule.rhs)
        if not vec_strict_gt(left.const, right.const):
            return False
        for name in {**left.coeffs, **right.coeffs}:
            if not mat_ge(left.coeff(name, dim), right.coeff(name, dim)):
                return False
        return True

    return assign(0)
