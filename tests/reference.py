"""One-step rewriting written straight from the definitions, with no caches,
kept as the reference that atrs.rewriting must agree with.

A step contracts the subterm at some position of t with some rule whose
left-hand side matches there.  It is innermost when every argument of that
subterm is a normal form, and rightmost-innermost when its position is
also the greatest innermost position in the lexicographic order.  Steps
come in position preorder, then rule order.
"""

from __future__ import annotations

from atrs.rewriting import RewriteStep, StrategyKind
from atrs.terms import (
    Fun,
    Term,
    Trs,
    is_normal_form,
    match,
    positions,
    replace,
    substitute,
    subterm_at,
)


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
