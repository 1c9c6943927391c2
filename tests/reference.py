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

A loop witness replays when each step of its trace is one of these steps
from the term before it and the trace closes.

Terms sort by a nested key, one tuple per subterm.  Heights come from a
depth-first search over these successors with no memo, closures from a
breadth-first search, relative successors from full modulo closures, and
dc rows from every term with at most two variables.  Each of these spends
a Budget, the size of each term it visits, so a search that would not end,
or would build ever larger terms, stops with BudgetExceeded instead.

Positions, subterm access and replacement, canonical renaming, the
currying system C with its normal forms, the inverse of uncurrying, and
the value of a term under a matrix interpretation are the paper's
definitions that only these references and the tests use.  The vector and
matrix arithmetic is written out here too, so that no reference shares
atrs.tmi's kernel.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Iterator, Mapping

from atrs.rewriting import LoopDetected, RewriteStep, StrategyKind
from atrs.terms import (
    APP,
    Fun,
    Position,
    Rule,
    Symbol,
    Term,
    Trs,
    Var,
    canonical_var_name,
    match,
    rename,
    substitute,
    subterms,
    variables,
)
from atrs.tmi import InterpretationError, Matrix, MatrixInterp, Vector
from atrs.uncurrying import AtrsContext


class InvalidPositionError(ValueError):
    """Raised when a position does not exist in a term."""


def positions(t: Term) -> tuple[Position, ...]:
    """All positions of t in preorder; len(positions(t)) == size(t)."""
    out: list[Position] = []
    stack: list[tuple[Position, Term]] = [((), t)]
    while stack:
        p, s = stack.pop()
        out.append(p)
        if isinstance(s, Fun):
            for i in range(len(s.args), 0, -1):
                stack.append((p + (i,), s.args[i - 1]))
    return tuple(out)


def size(t: Term) -> int:
    """The number of subterm occurrences of t, the size that dc tables count."""
    return sum(1 for _ in subterms(t))


def canonical(t: Term) -> Term:
    """t with variables renamed to x, y, z, ... in order of first occurrence.

    Two terms are equal modulo variable renaming iff their canonical forms
    are equal.
    """
    names = variables(t)
    mapping = {n: canonical_var_name(i) for i, n in enumerate(names)}
    if all(k == v for k, v in mapping.items()):
        return t
    return rename(t, mapping)


def subterm_at(t: Term, p: Position) -> Term:
    for i in p:
        if not isinstance(t, Fun) or not 1 <= i <= len(t.args):
            raise InvalidPositionError(f"position {list(p)} not in term")
        t = t.args[i - 1]
    return t


def replace(t: Term, p: Position, s: Term) -> Term:
    """The term t with the subterm at position p replaced by s."""
    if not p:
        return s
    if not isinstance(t, Fun) or not 1 <= p[0] <= len(t.args):
        raise InvalidPositionError(f"position {list(p)} not in term")
    i = p[0] - 1
    new_arg = replace(t.args[i], p[1:], s)
    return Fun(t.symbol, t.args[:i] + (new_arg,) + t.args[i + 1 :])


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
                out.append(RewriteStep(p, i, result))
    if kind is StrategyKind.RIGHTMOST_INNERMOST and out:
        rightmost = max(st.position for st in out)
        out = [st for st in out if st.position == rightmost]
    return out


def successors(trs: Trs, t: Term, kind: StrategyKind) -> list[Term]:
    """The distinct results of steps(trs, t, kind), in step order."""
    return list(dict.fromkeys(st.result for st in steps(trs, t, kind)))


def assert_loop_replays(trs: Trs, loop: LoopDetected, kind: StrategyKind) -> None:
    """Assert that loop is a real cycle under the strategy: each step of its
    trace, with position, rule and result, is a step from the term before
    it, loop.start for the first, and the nonempty trace ends at loop.start."""
    cur = loop.start
    for step in loop.trace:
        assert step in steps(trs, cur, kind), (cur, step)
        cur = step.result
    assert loop.trace and cur == loop.start


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
        self.left -= size(t)
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


def currying_system(symbols: set[Symbol] | frozenset[Symbol], app: Symbol = APP) -> Trs:
    """Rules flattening every n-ary symbol into applications of a constant.

    For f of arity n the rules are f_{i+1}(x1..xi, y) -> f_i(x1..xi) @ y for
    n > i >= 0, where f_n is f itself and lower members are f#i (f#0 is the
    constant f).
    """
    rules = []
    for f in sorted(symbols):
        if f == app or f.arity == 0:
            continue
        for i in range(f.arity - 1, -1, -1):
            upper = f if i + 1 == f.arity else AtrsContext.family(f.name, i + 1)
            lower = AtrsContext.family(f.name, i)
            xs = tuple(Var(f"x{j + 1}") for j in range(i))
            y = Var("y")
            rules.append(
                Rule(Fun(upper, xs + (y,)), Fun(app, (Fun(lower, xs), y)))
            )
    return Trs(rules, extra_signature=symbols | {app})


def curry_nf(
    symbols: set[Symbol] | frozenset[Symbol], t: Term, app: Symbol = APP
) -> Term:
    """The unique normal form of t under the currying system of symbols.

    Every application of an n-ary symbol from symbols, or of one of its
    family members, is flattened into a spine headed by the corresponding
    constant.
    """
    flat: dict[Symbol, str] = {}
    for f in symbols:
        if f == app or f.arity == 0:
            continue
        flat[f] = f.name
        for i in range(1, f.arity):
            flat[AtrsContext.family(f.name, i)] = f.name

    def go(t: Term) -> Term:
        if isinstance(t, Var):
            return t
        args = tuple(go(a) for a in t.args)
        base = flat.get(t.symbol)
        if base is None or t.symbol == app:
            return Fun(t.symbol, args)
        out: Term = Fun(Symbol(base, 0))
        for a in args:
            out = Fun(app, (out, a))
        return out

    return go(t)


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


def evaluate(interp: MatrixInterp, t: Term, assignment: Mapping[str, Vector]) -> Vector:
    """The value of t under a concrete variable assignment."""
    if isinstance(t, Var):
        try:
            return assignment[t.name]
        except KeyError:
            raise InterpretationError(f"no value assigned to variable {t.name}") from None
    mats, vec = interp.entries[t.symbol]
    out = vec
    for m, arg in zip(mats, t.args):
        out = vec_add(out, mat_vec(m, evaluate(interp, arg, assignment)))
    return out


class UnknownSymbolError(ValueError):
    """A term mentions a symbol outside the source signature and its family."""


def curry_back(ctx: AtrsContext, t: Term) -> Term:
    """Fully curry t and rename family members back to their base constants.

    Defined for terms over the source signature extended by the family;
    anything else raises UnknownSymbolError.
    """
    base = {
        ctx.family(name, i): Symbol(name, 0)
        for name, k in ctx.aa.items()
        for i in range(k + 1)
    }

    def back(t: Term) -> Term:
        if isinstance(t, Var):
            return t
        if t.symbol == ctx.app:
            return Fun(ctx.app, (back(t.args[0]), back(t.args[1])))
        constant = base.get(t.symbol)
        if constant is None:
            raise UnknownSymbolError(f"symbol {t.symbol} outside signature and family")
        out: Term = Fun(constant)
        for a in t.args:
            out = Fun(ctx.app, (out, back(a)))
        return out

    return back(t)
