"""Hypothesis strategies for small rewrite systems.

first_order_systems draws 2-4 symbols of arity at most 2, one of them a
constant; applicative_systems draws 2-4 constants and the binary symbol
app; system_pairs draws two systems over one such set.  Each system has
1-4 rules.  A left-hand side is not a variable, has depth at most 3 and
may repeat its variables; a right-hand side uses only the variables of its
left-hand side.  Every drawn symbol is in the signature, even when no rule
uses it.  terms draws terms of depth at most 4 over either kind of symbol
set and the variables x and y.
"""

from __future__ import annotations

from hypothesis import strategies as st

from atrs.terms import APP, Fun, Rule, Symbol, Trs, Var, variables

_NAMES = "abcd"
_VARS = ("x", "y")


def _terms(symbols: tuple[Symbol, ...], names, depth: int):
    """Terms of depth at most depth over symbols and the named variables."""
    leaves = [Fun(f) for f in symbols if f.arity == 0] + [Var(n) for n in names]
    leaf = st.sampled_from(leaves)
    heads = [f for f in symbols if f.arity > 0]
    if depth == 0 or not heads:
        return leaf
    below = _terms(symbols, names, depth - 1)
    node = st.sampled_from(heads).flatmap(
        lambda f: st.tuples(*[below] * f.arity).map(lambda args: Fun(f, args))
    )
    return st.one_of(leaf, node)


@st.composite
def _rules(draw, symbols: tuple[Symbol, ...]):
    lhs = draw(_terms(symbols, _VARS, 3).filter(lambda t: isinstance(t, Fun)))
    return Rule(lhs, draw(_terms(symbols, variables(lhs), 3)))


def _systems(symbols: tuple[Symbol, ...]):
    return st.lists(_rules(symbols), min_size=1, max_size=4).map(
        lambda rules: Trs(rules, extra_signature=symbols)
    )


def _first_order_symbols():
    return st.lists(st.integers(0, 2), min_size=1, max_size=3).map(
        lambda arities: tuple(Symbol(n, k) for n, k in zip(_NAMES, [0] + arities))
    )


def _applicative_symbols():
    return st.integers(2, 4).map(
        lambda n: tuple(Symbol(c, 0) for c in _NAMES[:n]) + (APP,)
    )


def first_order_systems():
    return _first_order_symbols().flatmap(_systems)


def applicative_systems():
    return _applicative_symbols().flatmap(_systems)


def system_pairs():
    """A main and a modulo system over the same drawn symbols, both
    first-order or both applicative."""
    return st.one_of(_first_order_symbols(), _applicative_symbols()).flatmap(
        lambda symbols: st.tuples(_systems(symbols), _systems(symbols))
    )


def terms():
    return st.one_of(_first_order_symbols(), _applicative_symbols()).flatmap(
        lambda symbols: _terms(symbols, _VARS, 4)
    )
