"""Derivational complexity measured by exhaustive term enumeration.

dc(n) is the maximal derivation height over all terms of size at most n; the
innermost variant restricts the rewrite strategy, the relative variant counts
main-system steps modulo a second system.  Tables are computed by brute force
over a canonical enumeration of terms, so they are exact at desk scale.  The
enumeration builds each size from cached argument lists of smaller sizes,
made only when a larger term first needs them; the row being tabled is
streamed, not stored.  _Enumeration.starts gives the start terms of every
search: above size 1 none that the left-hand sides prove normal, as such a
term has height 0 and starts no cycle.  The innermost-loop search streams
them too and stops at the first innermost cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .rewriting import (
    Finished,
    FuelExhausted,
    FuelOutcome,
    HeightSearch,
    LoopDetected,
    RelativeHeightSearch,
    StrategyKind,
)
from .terms import Fun, Symbol, Term, Trs, Var, canonical_var_name, is_left_linear


#: What _Enumeration streams: each term, its count of distinct variables,
#: and its state.
_Stream = Iterator[tuple[Term, int, int]]


class _Enumeration:
    """Canonical terms over one signature: variables first, then symbols in
    sorted order.  lists[size, used] holds the terms of that size after used
    distinct variables and, in parallel lists, the count of distinct
    variables after each and each term's state; it is built when a larger
    term first asks for it as an argument.  Three lists take far less
    memory than one list of triples.  A list is keyed on used clamped
    below max_vars: with every variable in use none is new, so the terms,
    their order and states are those with one fewer in use, and only the
    next _listed, which clamps too, reads the after counts.

    A term's state comes from a bottom-up tree automaton (Comon et al.,
    Tree Automata Techniques and Applications) over the linearised
    non-variable subterms of the left-hand sides lhss: the bit set of the
    patterns it matches, or -1, "maybe reducible", when an argument is or
    a linearised left-hand side matches at the root.  Linearising only
    widens matching, so a state >= 0 proves the term normal in every system
    whose left-hand sides are in lhss.  stream(..., cut=True) builds no
    term so proved above size 1; starts is the one caller that cuts."""

    def __init__(self, signature: Iterable[Symbol], max_vars: int,
                 lhss: Iterable[Term] = ()):
        if max_vars < 0:
            raise ValueError("max_vars must not be negative")
        self.symbols = tuple(sorted(set(signature)))
        self.max_vars = max_vars
        self.lists: dict[tuple[int, int], tuple[list[Term], list[int], list[int]]] = {}
        #: (symbol, bits of the argument patterns, 0 for a variable) -> bit
        self.bits: dict[tuple[Symbol, tuple[int, ...]], int] = {}
        self.reducible = 0
        for lhs in lhss:
            self.reducible |= self._bit(lhs)
        #: (symbol, states of all arguments but the last) -> {state of the
        #: last argument: state of the term}
        self.rows: dict[tuple, dict[int, int]] = {}

    def _bit(self, t: Term) -> int:
        if isinstance(t, Var):
            return 0
        key = (t.symbol, tuple(map(self._bit, t.args)))
        return self.bits.setdefault(key, 1 << len(self.bits))

    def _state(self, f: Symbol, states: tuple[int, ...]) -> int:
        if -1 in states:
            return -1
        out = 0
        for (g, children), b in self.bits.items():
            if g is f and all(not c or c & s for c, s in zip(children, states)):
                out |= b
        return -1 if out & self.reducible else out

    def stream(self, size: int, used: int = 0, cut: bool = False) -> _Stream:
        if size == 1:
            for i in range(used):
                yield Var(canonical_var_name(i)), used, 0
            if used < self.max_vars:
                yield Var(canonical_var_name(used)), used + 1, 0
        for f in self.symbols:
            if size == 1 and f.arity == 0:
                yield Fun(f), used, self._state(f, ())
            elif 0 < f.arity < size:
                yield from self._apply(f, (), (), size - 1, f.arity, used, cut)

    def starts(self, size: int) -> Iterator[Term]:
        """Every term of size 1 and, above it, the terms the automaton
        cannot prove normal.  Every term has a leaf, so a search gets no
        start term only when no term exists."""
        return (t for t, _, _ in self.stream(size, cut=True))

    def _listed(self, size: int, used: int) -> _Stream:
        used = min(used, max(self.max_vars - 1, 0))
        out = self.lists.get((size, used))
        if out is None:
            terms, after, states = [], [], []
            for t, u, s in self.stream(size, used):
                terms.append(t)
                after.append(u)
                states.append(s)
            out = self.lists[size, used] = (terms, after, states)
        return zip(*out)

    def _apply(self, f: Symbol, done: tuple[Term, ...], states: tuple[int, ...],
               budget: int, count: int, used: int, cut: bool) -> _Stream:
        """f applied to done, whose states are states, and then count more
        arguments of total size budget."""
        if count == 1:
            row = self.rows.setdefault((f,) + states, {})
            for t, u, s in self._listed(budget, used):
                state = row.get(s)
                if state is None:
                    state = row[s] = self._state(f, states + (s,))
                if not cut or state < 0:
                    yield Fun(f, done + (t,)), u, state
            return
        for first in range(1, budget - count + 2):
            for t, u, s in self._listed(first, used):
                yield from self._apply(f, done + (t,), states + (s,),
                                       budget - first, count - 1, u, cut)


def terms_of_size(
    signature: Iterable[Symbol], size: int, max_vars: int = 2
) -> Iterator[Term]:
    """Canonical terms of exactly the given size over the signature."""
    return (t for t, _, _ in _Enumeration(signature, max_vars).stream(size))


def enumerate_terms(
    signature: Iterable[Symbol], max_size: int, max_vars: int = 2
) -> list[Term]:
    """All terms of size <= max_size with at most max_vars distinct variables,
    one representative per renaming class, in a fixed deterministic order.

    Variables are named canonically in order of first occurrence, so distinct
    listed terms are distinct modulo renaming.
    """
    enumeration = _Enumeration(signature, max_vars)
    return [
        t for size in range(1, max_size + 1) for t, _, _ in enumeration.stream(size)
    ]


@dataclass(frozen=True)
class DcRow:
    """One table row: the complexity value and a start term attaining it."""

    value: int
    witness: Term


@dataclass
class ComplexityTable:
    """dc values per size bound, with the reason the table stopped, if any.

    rows[n] is exact over all enumerated terms of size <= n, for n from 1
    up, with a start term as witness, so a space with no term has no rows.
    loop is the search's LoopDetected when a reachable cycle stopped the
    table, and fuel_exhausted_on names the starting term when fuel did.
    """

    strategy: StrategyKind
    rows: dict[int, DcRow] = field(default_factory=dict)
    loop: LoopDetected | None = None
    fuel_exhausted_on: Term | None = None

    @property
    def incomplete_at(self) -> int | None:
        """The size whose row the table stopped on, or None if it did not."""
        if self.loop is None and self.fuel_exhausted_on is None:
            return None
        return len(self.rows) + 1


def _start_terms(trs: Trs, max_vars: int) -> _Enumeration:
    """The enumeration whose starts are the start terms of every search over
    trs: canonical terms over its signature, its lhss for the automaton.

    A left-linear system enumerates at most one variable: merging a term's
    variables keeps its size and its height under every strategy, and the
    merged term comes first, so rows, witnesses and loops, innermost cycles
    included, stay the same.  Only a search stopped by fuel may get further.
    """
    if is_left_linear(trs):
        max_vars = min(max_vars, 1)
    return _Enumeration(trs.signature, max_vars, [rule.lhs for rule in trs.rules])


def _fill_table(
    search: HeightSearch, max_size: int, fuel: int, max_vars: int
) -> ComplexityTable:
    if fuel < 1:
        raise ValueError("fuel must be positive")
    # a relative search's trs is the combined system, left-linear exactly
    # when both systems are
    enumeration = _start_terms(search.trs, max_vars)
    table = ComplexityTable(strategy=search.kind)
    row: DcRow | None = None
    for n in range(1, max_size + 1):
        for t in enumeration.starts(n):
            outcome = search.height(t, fuel)
            if isinstance(outcome, Finished):
                if row is None or outcome.value > row.value:
                    row = DcRow(outcome.value, t)
            elif isinstance(outcome, LoopDetected):
                table.loop = outcome
                return table
            else:
                table.fuel_exhausted_on = t
                return table
        if row is None:  # every term has a leaf: none of size 1, none at all
            break
        table.rows[n] = row
    return table


def detect_innermost_nontermination(
    trs: Trs, max_term_size: int, fuel: int, max_vars: int = 2
) -> FuelOutcome:
    """Search enumerated start terms for an innermost cycle.

    The start terms of size up to max_term_size are tried in enumeration
    order; each height search explores at most fuel distinct terms.  Returns
    LoopDetected with the first innermost cycle found; otherwise
    FuelExhausted if some start term ran out of fuel, else Finished(number
    of start terms searched), which is no proof of termination and is 0
    only when no start term exists.
    """
    if fuel < 1:
        raise ValueError("fuel must be positive")
    search = HeightSearch(trs, StrategyKind.INNERMOST)
    enumeration = _start_terms(trs, max_vars)
    exhausted, count = False, 0
    for n in range(1, max_term_size + 1):
        for t in enumeration.starts(n):
            count += 1
            outcome = search.height(t, fuel)
            if isinstance(outcome, LoopDetected):
                return outcome
            exhausted = exhausted or isinstance(outcome, FuelExhausted)
    return FuelExhausted() if exhausted else Finished(count)


def dc_table(
    trs: Trs,
    max_size: int,
    kind: StrategyKind,
    fuel: int,
    max_vars: int = 2,
) -> ComplexityTable:
    """Exact dc (or innermost dc) values for sizes 1..max_size over the
    start terms of _start_terms.

    Stops at the first size where a loop is detected (the value would be
    undefined) or fuel runs out; completed rows are kept either way.
    """
    return _fill_table(HeightSearch(trs, kind), max_size, fuel, max_vars)


def dc_relative_table(
    main: Trs,
    modulo: Trs,
    max_size: int,
    fuel: int,
    max_vars: int = 2,
) -> ComplexityTable:
    """dc values counting main steps modulo the second system.

    The start terms are those of the combined system: the union signature,
    and one variable when both systems are left-linear.  With an empty main
    system the relation is empty and every row is zero.
    """
    search = RelativeHeightSearch(main, modulo, fuel)
    return _fill_table(search, max_size, fuel, max_vars)
