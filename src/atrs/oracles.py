"""Executable checks of the simulation properties behind uncurrying.

Each oracle enumerates a bounded term space, checks one inclusion between
rewrite relations of an applicative system and its uncurried image, and
reports every violation with the concrete instance.  The properties are
theorems, so a genuine failure means an implementation bug; the reports
distinguish refuted instances from instances the fuel could not decide.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexity import enumerate_terms
from .rewriting import (
    Closure,
    StrategyKind,
    _ri_steps,
    is_normal_form_fast,
    successors,
)
from .terms import Term, Trs, subterms, term_sort_key
from .uncurrying import AtrsContext, transform, uncurry_nf, uncurrying_system

# Closures of the uncurrying rules alone are small (the system is terminating
# and size-decreasing in spine length); this cap only guards against bugs.
# ri-sim reads these closures unchecked: overflowing the cap takes more than
# 1,000,000 uncurrying reducts of one enumerated term, and would end as an
# internal error (exit 4).
_U_FUEL = 1_000_000


@dataclass(frozen=True)
class Failure:
    """One refuted instance: the terms involved."""

    instance: tuple[Term, ...]


@dataclass
class VerificationReport:
    """Outcome of one oracle run.

    expected is the relation the property asks of each instance, and
    observed what a refuted instance shows instead; they hold for every
    failure.  Every instance the oracle lists counts as checked, decided or
    not.  exhausted holds the undecided entries: instances whose check ran
    out of fuel, and source terms alone, (s,), whose instances did not fit
    in the fuel to be listed and so count none.  failures is empty iff the
    property held on every decided instance.  A report that checked nothing
    is vacuous and must not be read as success.  status is the verdict: the
    first of refuted, vacuous and undecided that applies, or ok.
    """

    property_name: str
    expected: str
    observed: str
    instances_checked: int
    failures: tuple[Failure, ...] = ()
    exhausted: tuple[tuple[Term, ...], ...] = ()

    @property
    def vacuous(self) -> bool:
        return self.instances_checked == 0

    @property
    def status(self) -> str:
        if self.failures:
            return "refuted"
        if self.vacuous:
            return "vacuous"
        if self.exhausted:
            return "undecided"
        return "ok"


def _report(name: str, expected: str, observed: str, verdicts) -> VerificationReport:
    """The report of an oracle from its (instance, verdict) pairs in check
    order; a verdict is True (holds), False (refuted) or None (undecided)."""
    checked, failures, exhausted = 0, [], []
    for instance, verdict in verdicts:
        checked += len(instance) > 1  # a source term alone counts none
        if verdict is None:
            exhausted.append(instance)
        elif not verdict:
            failures.append(Failure(instance))
    return VerificationReport(
        name, expected, observed, checked, tuple(failures), tuple(exhausted))


def verify_uncurried_step(trs: Trs, max_size: int, fuel: int) -> VerificationReport:
    """Single full steps translate to nonempty uncurried derivations.

    For every enumerated s, each distinct one-step result t of s in the
    source system is one instance: the uncurried forms must satisfy
    u(s) ->+ u(t) in the combined system.  One search from u(s) serves all
    t, so its running out leaves each undecided.
    """
    res = transform(trs)
    ctx = res.context
    reach = Closure(res.combined, StrategyKind.FULL, fuel)

    def verdicts():
        for s in enumerate_terms(trs.signature, max_size):
            targets = successors(trs, s, StrategyKind.FULL)
            reached = reach.plus(uncurry_nf(ctx, s)) if targets else ()
            for t in targets:
                yield (s, t), None if reached is None else uncurry_nf(ctx, t) in reached

    return _report(
        "uncurried-step", "uncurried source reaches uncurried target in >= 1 step",
        "target not reachable in the combined system", verdicts())


def verify_rightmost_simulation(
    trs: Trs, max_size: int, fuel: int
) -> VerificationReport:
    """Rightmost-innermost source steps lift over partial uncurrying.

    For every enumerated t, every reduct s of t under the uncurrying rules,
    and every rightmost-innermost step t -> u of the source system, some s'
    must satisfy s ->+ s' innermost in the combined system with s' also a
    reduct of u under the uncurrying rules.
    """
    res = transform(trs)
    u_reach = Closure(res.u_rules, StrategyKind.FULL, _U_FUEL)
    i_reach = Closure(res.combined, StrategyKind.INNERMOST, fuel)

    def verdicts():
        for t in enumerate_terms(trs.signature, max_size):
            # every step counts, so results repeat as often as their steps do
            results = _ri_steps(trs, t)
            sources = sorted(u_reach.star(t), key=term_sort_key) if results else ()
            reached = [i_reach.plus(s) for s in sources]
            for u in results:
                targets = u_reach.star(u)
                for s, plus in zip(sources, reached):
                    met = None if plus is None else not plus.isdisjoint(targets)
                    yield (t, s, u), met

    return _report("ri-sim", "innermost derivation from s meets a reduct of u",
                   "no common term found", verdicts())


def verify_nf_preservation(trs: Trs, max_size: int, fuel: int) -> VerificationReport:
    """Uncurrying steps preserve source normal forms.

    Every reduct (under the uncurrying rules) of an enumerated source normal
    form must be a normal form of the uncurried eta-saturation.
    """
    res = transform(trs)
    u_reach = Closure(res.u_rules, StrategyKind.FULL, fuel)

    def verdicts():
        for s in enumerate_terms(trs.signature, max_size):
            if is_normal_form_fast(trs, s):
                reducts = u_reach.star(s)
                if reducts is None:
                    yield (s,), None
                    continue
                for t in sorted(reducts, key=term_sort_key):
                    yield (s, t), is_normal_form_fast(res.uncurried_eta, t)

    return _report("nf-preservation", "reduct of a source normal form is normal",
                   "reduct has a step in the uncurried system", verdicts())


def verify_subterm_commutation(
    ctx: AtrsContext, max_size: int, fuel: int
) -> VerificationReport:
    """Subterms of uncurrying reducts come from subterms of the source.

    For enumerated s, whenever s ->* t under the uncurrying rules and u is a
    proper subterm of t, some proper subterm v of s satisfies v ->* u.

    Only listing the reducts of s can run out of fuel: w |-> s[w]_p maps the
    reducts of the subterm v = s|_p injectively into those of s, so once the
    latter fit, star(v) fits too.
    """
    u_reach = Closure(uncurrying_system(ctx), StrategyKind.FULL, fuel)

    def verdicts():
        for s in enumerate_terms({ctx.app} | ctx.constants, max_size):
            reducts = u_reach.star(s)
            if reducts is None:
                yield (s,), None
                continue
            proper_s = _proper_subterms(s)
            for t in sorted(reducts, key=term_sort_key):
                for u in _proper_subterms(t):
                    yield (s, t, u), any(u in u_reach.star(v) for v in proper_s)

    return _report(
        "subterm-commutation", "subterm of a reduct is a reduct of a subterm",
        "no source subterm rewrites to it", verdicts())


def _proper_subterms(t: Term) -> list[Term]:
    """Distinct proper subterms, outermost first."""
    return list(dict.fromkeys(subterms(t)))[1:]

