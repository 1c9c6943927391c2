"""Rewriting under full, innermost, and rightmost-innermost strategies.

There is one step table per strategy, memoizing one-step results per
(system, term) over interned terms.  The rules tried at a subterm are the
system's candidates for it (Trs.candidates, the rule index), in rule order.
redexes builds step records, with position and rule, only for loop
witnesses.
All searches are totalized by fuel: they finish, run out of fuel, or detect
a loop and report it as one record, LoopDetected(trace), whose nonempty
steps, each with position, rule and result, lead from the term the trace
ends on back to it.

HeightSearch is the one longest-path search.  It walks the one-step
results of each term under a strategy; RelativeHeightSearch walks
the relative successors of a main system modulo a second one instead,
computed from its modulo Closure, and only these successors and the loop
witness differ between the two.

Closure is the one reachability search.  It gives the memoized `->*` and
`->+` sets behind the relative successors and the oracles, and its
fuel bounds each set: past it, the set is None.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence

from .terms import (
    Fun,
    Position,
    Term,
    Trs,
    Var,
    match,
    substitute,
    term_sort_key,
)

# Deep but narrow terms (long unary chains) drive recursive folds close to
# the default interpreter limit; give them headroom once, at import.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))


class StrategyKind(Enum):
    FULL = "full"
    INNERMOST = "innermost"
    RIGHTMOST_INNERMOST = "rightmost-innermost"


@dataclass(eq=True)
class RewriteStep:
    """One rewrite step: rule rule_index applied at position."""

    position: Position
    rule_index: int
    result: Term


@dataclass(eq=True)
class Finished:
    value: object


@dataclass(eq=True)
class FuelExhausted:
    pass


@dataclass(eq=True)
class LoopDetected:
    """A nonempty step sequence leading from start back to start, where
    start is the result of its last step."""

    trace: tuple[RewriteStep, ...]

    @property
    def start(self) -> Term:
        return self.trace[-1].result


#: Every bounded search returns one of these three.
FuelOutcome = Finished | FuelExhausted | LoopDetected


@lru_cache(maxsize=None)
def _root_steps(trs: Trs, t: Term) -> tuple[Term, ...]:
    return tuple(
        substitute(rule.rhs, sigma)
        for _, rule in trs.candidates(t)
        if (sigma := match(rule.lhs, t)) is not None
    )


def _wrap(t: Fun, i: int, results: Iterable[Term]) -> list[Term]:
    """Lift results of steps in argument i+1 of t to results in t."""
    before, after = t.args[:i], t.args[i + 1 :]
    return [Fun(t.symbol, before + (u,) + after) for u in results]


@lru_cache(maxsize=None)
def _full_steps(trs: Trs, t: Term) -> tuple[Term, ...]:
    """Results of all steps from t, leftmost-outermost, then by rule."""
    if isinstance(t, Var):
        return ()
    out = list(_root_steps(trs, t))
    for i, a in enumerate(t.args):
        inner = _full_steps(trs, a)
        if inner:
            out.extend(_wrap(t, i, inner))
    return tuple(out)


@lru_cache(maxsize=None)
def _innermost_steps(trs: Trs, t: Term) -> tuple[Term, ...]:
    """Results of steps at innermost redexes (all proper subterms normal)."""
    if isinstance(t, Var):
        return ()
    inner: list[Term] = []
    for i in range(len(t.args)):
        inner.extend(_wrap(t, i, _innermost_steps(trs, t.args[i])))
    if inner:
        return tuple(inner)
    return _root_steps(trs, t)


@lru_cache(maxsize=None)
def _ri_steps(trs: Trs, t: Term) -> tuple[Term, ...]:
    """Results of steps at the rightmost innermost redex."""
    if isinstance(t, Var):
        return ()
    for i in reversed(range(len(t.args))):
        inner = _ri_steps(trs, t.args[i])
        if inner:
            return tuple(_wrap(t, i, inner))
    return _root_steps(trs, t)


_TABLES = {
    StrategyKind.FULL: _full_steps,
    StrategyKind.INNERMOST: _innermost_steps,
    StrategyKind.RIGHTMOST_INNERMOST: _ri_steps,
}


def is_normal_form_fast(trs: Trs, t: Term) -> bool:
    """Cached normal-form test; tests/reference.py has the definition."""
    return not _innermost_steps(trs, t)


def redexes(trs: Trs, t: Term, kind: StrategyKind) -> list[RewriteStep]:
    """The steps available from t under the strategy, sorted by position
    (leftmost-outermost order) and rule index, for loop witnesses.
    The walk enters only subterms whose step table is not empty, and under
    rightmost-innermost only the last such argument."""
    steps = _TABLES[kind]
    results = steps(trs, t)
    found = []
    todo = [((), t)] if results else []
    while todo:
        p, s = todo.pop()
        inner = [i for i, a in enumerate(s.args, 1) if steps(trs, a)]
        if kind is StrategyKind.FULL or not inner:
            for i, rule in trs.candidates(s):
                if match(rule.lhs, s) is not None:
                    found.append((p, i))
        if kind is StrategyKind.RIGHTMOST_INNERMOST:
            del inner[:-1]
        for i in reversed(inner):
            todo.append((p + (i,), s.args[i - 1]))
    return [RewriteStep(*st, u) for st, u in zip(found, results, strict=True)]


def successors(trs: Trs, t: Term, kind: StrategyKind) -> list[Term]:
    """Distinct one-step results from t, in step order."""
    return list(dict.fromkeys(_TABLES[kind](trs, t)))


class Closure:
    """Reflexive-transitive closure sets of trs under kind, memoized by
    start term.

    Fuel bounds each closure set: star(t) is None exactly when more than
    fuel terms are reachable from t, and then nothing is memoized for t;
    plus(t) is None as soon as a star it unites is.  The returned sets are
    shared with the memo and must not be mutated.
    """

    def __init__(self, trs: Trs, kind: StrategyKind, fuel: int):
        if fuel < 1:
            raise ValueError("fuel must be positive")
        self.trs = trs
        self.kind = kind
        self.fuel = fuel
        self.memo: dict[Term, set[Term]] = {}

    def star(self, t: Term) -> set[Term] | None:
        """Terms reachable from t in zero or more steps, or None past fuel."""
        memo = self.memo
        out = memo.get(t)
        if out is not None:
            return out
        trs, steps, fuel = self.trs, _TABLES[self.kind], self.fuel
        out = {t}
        todo = [t]
        while todo:
            for u in steps(trs, todo.pop()):
                if u not in out:
                    done = memo.get(u)
                    if done is None:
                        out.add(u)
                        todo.append(u)
                    else:
                        out |= done
            if len(out) > fuel:
                return None
        memo[t] = out
        return out

    def plus(self, t: Term) -> set[Term] | None:
        """Terms reachable from t in one or more steps, or None past fuel."""
        out: set[Term] = set()
        for u in _TABLES[self.kind](self.trs, t):
            if (reached := self.star(u)) is None:
                return None
            out |= reached
        return out


def normalize(trs: Trs, t: Term, kind: StrategyKind, fuel: int) -> FuelOutcome:
    """Repeatedly apply the first available step until a normal form.

    Finished(normal form); LoopDetected as soon as a term repeats on the
    derivation, its trace taking the first step of each term on the cycle;
    FuelExhausted after fuel steps without reaching a normal form.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    steps = _TABLES[kind]
    seen_at = {t: 0}
    for _ in range(fuel):
        results = steps(trs, t)
        if not results:
            return Finished(t)
        t = results[0]
        if t in seen_at:
            cycle = list(seen_at)[seen_at[t] :]
            trace = tuple(redexes(trs, a, kind)[0] for a in cycle)
            return LoopDetected(trace)
        seen_at[t] = len(seen_at)
    if not steps(trs, t):
        return Finished(t)
    return FuelExhausted()


class HeightSearch:
    """Longest-path search over the rewrite graph of trs under kind, with a
    shared memo table.

    The edges from t go to its one-step results, in step order, read from
    the step table as they are: a result repeated there is a memo hit by
    the time it is reached again.  height() may be called for many start
    terms and reuses everything already explored.  Fuel counts terms newly
    explored by one call; memoized subgraphs are free.  Subclasses change
    the graph by overriding _successors and _cycle_trace; a _successors of
    None stops the call with FuelExhausted.
    """

    def __init__(self, trs: Trs, kind: StrategyKind):
        self.trs = trs
        self.kind = kind
        self.memo: dict[Term, int] = {}
        self._steps = _TABLES[kind]

    def _successors(self, t: Term) -> Sequence[Term] | None:
        return self._steps(self.trs, t)

    def _cycle_trace(self, cycle: list[Term]) -> tuple[RewriteStep, ...]:
        """The steps along cycle[0] -> cycle[1] -> ... -> cycle[0], taking
        for each edge a -> b the last step of a with result b."""
        return tuple(
            next(
                st
                for st in reversed(redexes(self.trs, a, self.kind))
                if st.result == b
            )
            for a, b in zip(cycle, cycle[1:] + cycle[:1])
        )

    def height(self, t: Term, fuel: int) -> FuelOutcome:
        if fuel <= 0:
            raise ValueError("fuel must be positive")
        memo = self.memo
        if t in memo:
            return Finished(memo[t])
        new_nodes = 1
        if (succ := self._successors(t)) is None:
            return FuelExhausted()
        stack = [[t, succ, 0, 0]]
        on_stack = {t: 0}
        while stack:
            frame = stack[-1]
            succ = frame[1]
            if frame[2] < len(succ):
                u = succ[frame[2]]
                frame[2] += 1
                h = memo.get(u)
                if h is not None:
                    if h + 1 > frame[3]:
                        frame[3] = h + 1
                elif u in on_stack:
                    cycle = [f[0] for f in stack[on_stack[u] :]]
                    return LoopDetected(self._cycle_trace(cycle))
                else:
                    new_nodes += 1
                    if new_nodes > fuel or (succ := self._successors(u)) is None:
                        return FuelExhausted()
                    on_stack[u] = len(stack)
                    stack.append([u, succ, 0, 0])
            else:
                stack.pop()
                del on_stack[frame[0]]
                memo[frame[0]] = frame[3]
                if stack and frame[3] + 1 > stack[-1][3]:
                    stack[-1][3] = frame[3] + 1
        return Finished(memo[t])


def strategy_search(trs: Trs, kind: StrategyKind) -> HeightSearch:
    """A HeightSearch over the one-step relation of trs under kind."""
    return HeightSearch(trs, kind)


def derivation_height(trs: Trs, t: Term, kind: StrategyKind, fuel: int) -> FuelOutcome:
    """The maximal m with t rewriting in m steps under the strategy.

    Finished(m) for terminating reachable graphs; LoopDetected with a witness
    when a cycle is reachable (the height is then undefined); FuelExhausted
    when more than fuel distinct terms would have to be visited.
    """
    return HeightSearch(trs, kind).height(t, fuel)


class RelativeHeightSearch(HeightSearch):
    """Height search counting main steps modulo a second system.

    Successor edges are t => u iff t ->modulo* . ->main . ->modulo* u, under
    full rewriting, in term_sort_key order; the height of t is the maximal
    number of main steps in any mixed derivation.  One modulo Closure,
    built with the search, gives the pre-closure of t and every
    post-closure and serves every term the search explores.  fuel bounds
    each of these sets, so it must be positive; past it a set is None, so
    are the successors, and height reports FuelExhausted.  An empty
    main system gives no successors, though the relative relation is then
    empty by definition rather than by search.  Loop witnesses are concrete
    full-step traces in trs, the disjoint union of the two systems, main
    rules first.
    """

    def __init__(self, main: Trs, modulo: Trs, fuel: int):
        self.main = main
        self.closure = Closure(modulo, StrategyKind.FULL, fuel)
        combined = Trs(main.rules + modulo.rules,
                       extra_signature=main.signature | modulo.signature)
        super().__init__(combined, StrategyKind.FULL)

    def _successors(self, t: Term) -> Sequence[Term] | None:
        star, main = self.closure.star, self.main
        if (pre := star(t)) is None:
            return None
        post: set[Term] = set()
        for a in pre:
            for u in _full_steps(main, a):
                # post is closed under modulo steps, so a member adds nothing
                if u not in post:
                    if (reached := star(u)) is None:
                        return None
                    post |= reached
        return sorted(post, key=term_sort_key)

    def _cycle_trace(self, cycle: list[Term]) -> tuple[RewriteStep, ...]:
        """A shortest combined trace from cycle[0] back to itself with at
        least one main step, found by breadth-first search over (term, main
        step taken).  The relative cycle guarantees that one exists."""
        start = cycle[0]
        n_main = len(self.main.rules)
        root = (start, False)
        came_from: dict[tuple[Term, bool], tuple] = {root: ()}
        frontier = deque([root])
        while frontier:
            key = frontier.popleft()
            for st in redexes(self.trs, key[0], StrategyKind.FULL):
                counted = key[1] or st.rule_index < n_main
                if st.result == start and counted:
                    trace = [st]
                    while key != root:
                        key, step = came_from[key]
                        trace.append(step)
                    return tuple(reversed(trace))
                nxt = (st.result, counted)
                if nxt not in came_from:
                    came_from[nxt] = (key, st)
                    frontier.append(nxt)
        raise RuntimeError(f"no relative cycle through {start}")
