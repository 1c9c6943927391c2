"""One-step rewriting and term enumeration written straight from the
definitions, with no caches, kept as the references that atrs.rewriting and
atrs.complexity must agree with.

A step contracts the subterm at some position of t with some rule whose
left-hand side matches there.  It is innermost when every argument of that
subterm is a normal form, and rightmost-innermost when its position is
also the greatest innermost position in the lexicographic order.  Steps
come in position preorder, then rule order.

The recursive term enumeration below is the reference for
atrs.complexity.terms_of_size: canonical terms of one size, variables
first, then symbols in sorted order, rebuilt from the leaves on every call.

Terms sort by a nested key, one tuple per subterm.  Heights come from a
depth-first search over these successors with no memo, closures from a
breadth-first search, relative successors from full modulo closures, and
dc rows from every term with at most two variables.  Each of these spends
a Budget, the size of each term it visits, so a search that would not end,
or would build ever larger terms, stops with BudgetExceeded instead.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Iterator

from atrs.rewriting import RewriteStep, StrategyKind
from atrs.terms import (
    Fun,
    Symbol,
    Term,
    Trs,
    Var,
    canonical_var_name,
    match,
    positions,
    replace,
    substitute,
    subterm_at,
    subterms,
)


def term_sort_key(t: Term):
    """The nested key behind atrs.terms.term_sort_key: variables before
    function symbols, then lexicographic on (name, arity, argument keys)."""
    if isinstance(t, Var):
        return (0, t.name)
    return (1, t.symbol.name, t.symbol.arity, tuple(term_sort_key(a) for a in t.args))


def is_normal_form(trs: Trs, t: Term) -> bool:
    """True iff no rule of trs matches any subterm of t."""
    for s in subterms(t):
        for rule in trs.rules:
            if match(rule.lhs, s) is not None:
                return False
    return True


def _is_innermost(trs: Trs, s: Term) -> bool:
    return isinstance(s, Fun) and all(is_normal_form(trs, a) for a in s.args)


def steps(trs: Trs, t: Term, kind: StrategyKind) -> list[RewriteStep]:
    """Every step from t under the strategy."""
    out = []
    for p in positions(t):
        s = subterm_at(t, p)
        if kind is not StrategyKind.FULL and not _is_innermost(trs, s):
            continue
        for i, rule in enumerate(trs.rules):
            sigma = match(rule.lhs, s)
            if sigma is not None:
                result = replace(t, p, substitute(rule.rhs, sigma))
                out.append(RewriteStep(p, i, sigma, result))
    if kind is StrategyKind.RIGHTMOST_INNERMOST and out:
        rightmost = max(st.position for st in out)
        out = [st for st in out if st.position == rightmost]
    return out


def successors(trs: Trs, t: Term, kind: StrategyKind) -> list[Term]:
    """The distinct results of steps(trs, t, kind), in step order."""
    return list(dict.fromkeys(st.result for st in steps(trs, t, kind)))


def _terms_of_size(
    symbols: tuple[Symbol, ...], size: int, used: int, max_vars: int
) -> Iterator[tuple[Term, int]]:
    """Canonical terms of exactly this size, threading the count of distinct
    variables used so far; variables come first, then symbols in sorted order."""
    if size < 1:
        return
    if size == 1:
        for i in range(used):
            yield Var(canonical_var_name(i)), used
        if used < max_vars:
            yield Var(canonical_var_name(used)), used + 1
    for f in symbols:
        if f.arity == 0:
            if size == 1:
                yield Fun(f), used
        elif size >= f.arity + 1:
            for args, u in _args_of_size(symbols, size - 1, f.arity, used, max_vars):
                yield Fun(f, args), u


def _args_of_size(
    symbols: tuple[Symbol, ...], budget: int, count: int, used: int, max_vars: int
) -> Iterator[tuple[tuple[Term, ...], int]]:
    if count == 1:
        for t, u in _terms_of_size(symbols, budget, used, max_vars):
            yield (t,), u
        return
    for first in range(1, budget - (count - 1) + 1):
        for t, u in _terms_of_size(symbols, first, used, max_vars):
            for rest, u2 in _args_of_size(
                symbols, budget - first, count - 1, u, max_vars
            ):
                yield (t,) + rest, u2


def terms_of_size(signature, size: int, max_vars: int) -> list[Term]:
    """Canonical terms of exactly the given size over the signature."""
    symbols = tuple(sorted(set(signature)))
    return [t for t, _ in _terms_of_size(symbols, size, 0, max_vars)]


class BudgetExceeded(Exception):
    """A reference search visited more terms than its budget allows."""


class Budget:
    def __init__(self, units: int):
        self.left = units

    def spend(self, t: Term) -> None:
        """Pay for visiting t: its size, so growing terms run out soon."""
        self.left -= t.size
        if self.left < 0:
            raise BudgetExceeded


def height(
    successors: Callable[[Term], Iterable[Term]], t: Term, budget: Budget
) -> int | None:
    """The length of a longest path from t, or None when a cycle is
    reachable, by a depth-first search over every path with no memo."""

    def longest(s: Term, path: set[Term]) -> int | None:
        budget.spend(s)
        best = 0
        for u in successors(s):
            if u in path:
                return None
            path.add(u)
            h = longest(u, path)
            path.remove(u)
            if h is None:
                return None
            best = max(best, h + 1)
        return best

    return longest(t, {t})


def star(
    successors: Callable[[Term], Iterable[Term]], t: Term, budget: Budget
) -> set[Term]:
    """Every term reachable from t over successors, t included, by a
    breadth-first search."""
    seen = {t}
    todo = deque([t])
    while todo:
        s = todo.popleft()
        budget.spend(s)
        for u in successors(s):
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return seen


def relative_successors(
    main: Trs, modulo: Trs, t: Term, budget: Budget
) -> list[Term]:
    """Every u with t ->modulo* . ->main . ->modulo* u, in term_sort_key
    order, the order in which the relative search walks them."""

    def modulo_steps(s: Term) -> list[Term]:
        return successors(modulo, s, StrategyKind.FULL)

    found = {
        v
        for a in star(modulo_steps, t, budget)
        for u in successors(main, a, StrategyKind.FULL)
        for v in star(modulo_steps, u, budget)
    }
    return sorted(found, key=term_sort_key)


def dc_rows(
    signature, max_size: int, height_of: Callable[[Term], int | None]
) -> tuple[dict[int, tuple[int, Term]], tuple[int, str] | None]:
    """dc rows n -> (value, first term attaining it) over every term with at
    most two variables, and where they stop: (size, "loop") at the first
    start term that reaches a cycle, (size, "budget") at the first whose
    height_of raised BudgetExceeded, or None."""
    rows: dict[int, tuple[int, Term]] = {}
    best, witness = 0, None
    for n in range(1, max_size + 1):
        for t in terms_of_size(signature, n, 2):
            try:
                h = height_of(t)
            except BudgetExceeded:
                return rows, (n, "budget")
            if h is None:
                return rows, (n, "loop")
            if witness is None or h > best:
                best, witness = h, t
        rows[n] = (best, witness)
    return rows, None
