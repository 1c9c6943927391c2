"""Executable checks of the simulation properties behind uncurrying.

Each oracle enumerates a bounded term space, checks one inclusion between
rewrite relations of an applicative system and its uncurried image, and
reports every violation with the concrete instance.  The properties are
theorems, so a genuine failure means an implementation bug; the reports
distinguish refuted instances from instances the fuel could not decide.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import systems
from .complexity import enumerate_terms
from .rewriting import (
    Closure,
    FuelExhaustedError,
    StrategyKind,
    is_normal_form_fast,
    redexes,
    successors,
)
from .terms import Fun, Symbol, Term, Trs, subterms, term_sort_key
from .uncurrying import AtrsContext, transform, uncurry_nf, uncurrying_system

# Closures of the uncurrying rules alone are small (the system is terminating
# and size-decreasing in spine length); this cap only guards against bugs.
_U_FUEL = 1_000_000


@dataclass(frozen=True)
class Failure:
    """One refuted instance: the terms involved, the expected relation
    between them, and what the search observed instead."""

    instance: tuple[Term, ...]
    expected: str
    observed: str


@dataclass(frozen=True)
class Exhausted:
    """One instance the bounded search could not decide."""

    instance: tuple[Term, ...]
    note: str


@dataclass
class VerificationReport:
    """Outcome of one oracle run.

    failures is empty iff the property held on every decided instance;
    exhausted instances are undecided, not refuted.  A report that checked
    nothing is vacuous and must not be read as success.
    """

    property_name: str
    instances_checked: int
    failures: tuple[Failure, ...] = ()
    exhausted: tuple[Exhausted, ...] = ()

    @property
    def vacuous(self) -> bool:
        return self.instances_checked == 0

    @property
    def ok(self) -> bool:
        return not self.failures and not self.vacuous


def verify_uncurried_step(trs: Trs, max_size: int, fuel: int) -> VerificationReport:
    """Single full steps translate to nonempty uncurried derivations.

    For every enumerated s and every step s -> t of the source system, the
    uncurried forms must satisfy u(s) ->+ u(t) in the combined system.
    """
    res = transform(trs)
    ctx = res.context
    reach = Closure(res.combined, StrategyKind.FULL, fuel)
    checked = 0
    failures: list[Failure] = []
    exhausted: list[Exhausted] = []
    for s in enumerate_terms(trs.signature, max_size):
        targets = successors(trs, s, StrategyKind.FULL)
        if not targets:
            continue
        checked += len(targets)
        try:
            reached = reach.plus(uncurry_nf(ctx, s))
        except FuelExhaustedError:
            exhausted.extend(
                Exhausted((s, t), f"reachability fuel {fuel}") for t in targets
            )
            continue
        for t in targets:
            if uncurry_nf(ctx, t) not in reached:
                failures.append(
                    Failure(
                        (s, t),
                        "uncurried source reaches uncurried target in >= 1 step",
                        "target not reachable in the combined system",
                    )
                )
    return VerificationReport(
        "uncurried-step", checked, tuple(failures), tuple(exhausted)
    )


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
    checked = 0
    failures: list[Failure] = []
    exhausted: list[Exhausted] = []
    for t in enumerate_terms(trs.signature, max_size):
        steps = redexes(trs, t, StrategyKind.RIGHTMOST_INNERMOST)
        if not steps:
            continue
        sources = u_reach.star(t)
        for st in steps:
            u = st.result
            targets = u_reach.star(u)
            for s in sorted(sources, key=term_sort_key):
                checked += 1
                try:
                    if i_reach.plus(s).isdisjoint(targets):
                        failures.append(
                            Failure(
                                (t, s, u),
                                "innermost derivation from s meets a reduct of u",
                                "no common term found",
                            )
                        )
                except FuelExhaustedError:
                    exhausted.append(Exhausted((t, s, u), f"innermost fuel {fuel}"))
    return VerificationReport("ri-sim", checked, tuple(failures), tuple(exhausted))


def verify_nf_preservation(
    trs: Trs, max_size: int, fuel: int = _U_FUEL
) -> VerificationReport:
    """Uncurrying steps preserve source normal forms.

    Every reduct (under the uncurrying rules) of an enumerated source normal
    form must be a normal form of the uncurried eta-saturation.
    """
    res = transform(trs)
    u_reach = Closure(res.u_rules, StrategyKind.FULL, fuel)
    checked = 0
    failures: list[Failure] = []
    exhausted: list[Exhausted] = []
    for s in enumerate_terms(trs.signature, max_size):
        if not is_normal_form_fast(trs, s):
            continue
        try:
            reducts = u_reach.star(s)
        except FuelExhaustedError:
            exhausted.append(Exhausted((s,), f"closure fuel {fuel}"))
            continue
        for t in sorted(reducts, key=term_sort_key):
            checked += 1
            if not is_normal_form_fast(res.uncurried_eta, t):
                failures.append(
                    Failure(
                        (s, t),
                        "reduct of a source normal form is normal",
                        "reduct has a step in the uncurried system",
                    )
                )
    return VerificationReport(
        "nf-preservation", checked, tuple(failures), tuple(exhausted)
    )


def verify_subterm_commutation(
    ctx: AtrsContext, max_size: int, fuel: int = _U_FUEL
) -> VerificationReport:
    """Subterms of uncurrying reducts come from subterms of the source.

    For enumerated s, whenever s ->* t under the uncurrying rules and u is a
    proper subterm of t, some proper subterm v of s satisfies v ->* u.
    """
    u_trs = uncurrying_system(ctx)
    u_reach = Closure(u_trs, StrategyKind.FULL, fuel)
    signature = {ctx.app} | ctx.constants
    checked = 0
    failures: list[Failure] = []
    exhausted: list[Exhausted] = []
    for s in enumerate_terms(signature, max_size):
        proper_s = _proper_subterms(s)
        try:
            for t in sorted(u_reach.star(s), key=term_sort_key):
                for u in _proper_subterms(t):
                    checked += 1
                    if not any(u in u_reach.star(v) for v in proper_s):
                        failures.append(
                            Failure(
                                (s, t, u),
                                "subterm of a reduct is a reduct of a subterm",
                                "no source subterm rewrites to it",
                            )
                        )
        except FuelExhaustedError:
            exhausted.append(Exhausted((s,), f"closure fuel {fuel}"))
    return VerificationReport(
        "subterm-commutation", checked, tuple(failures), tuple(exhausted)
    )


def _proper_subterms(t: Term) -> list[Term]:
    """Distinct proper subterms, outermost first."""
    return list(dict.fromkeys(subterms(t)))[1:]


def verify_innermost_weakening_fails() -> VerificationReport:
    """The rightmost restriction in the simulation property is essential.

    On the fixed system {f -> g, f x -> g x, a -> b}: the innermost (but not
    rightmost) step f(a) -> g(a), read through the uncurrying reduct f#1(a),
    admits no innermost continuation meeting a reduct of g(a); the same
    source read through the rightmost-innermost step does.  The report holds
    iff both findings are reproduced exactly.
    """
    trs = systems.parallel_redexes()
    res = transform(trs)
    ctx = res.context
    app = ctx.app
    f, g, a = Fun(Symbol("f", 0)), Fun(Symbol("g", 0)), Fun(Symbol("a", 0))
    f_a = Fun(app, (f, a))
    g_a = Fun(app, (g, a))
    f1_a = Fun(ctx.family("f", 1), (a,))
    u_reach = Closure(res.u_rules, StrategyKind.FULL, _U_FUEL)
    i_reach = Closure(res.combined, StrategyKind.INNERMOST, _U_FUEL)

    failures: list[Failure] = []
    # premises: f(a) uncurries to f#1(a), steps innermost to g(a), and its
    # rightmost-innermost step contracts a instead
    if f1_a not in u_reach.star(f_a):
        failures.append(Failure((f_a, f1_a), "uncurrying reduct exists", "missing"))
    inner = successors(trs, f_a, StrategyKind.INNERMOST)
    if g_a not in inner:
        failures.append(Failure((f_a, g_a), "innermost step exists", "missing"))
    ri = successors(trs, f_a, StrategyKind.RIGHTMOST_INNERMOST)
    if g_a in ri:
        failures.append(
            Failure((f_a, g_a), "step is not rightmost-innermost", "it is")
        )

    iplus = i_reach.plus(f1_a)
    weak_targets = u_reach.star(g_a)
    if not iplus.isdisjoint(weak_targets):
        failures.append(
            Failure(
                (f1_a, g_a),
                "no innermost continuation meets a reduct of the target",
                "a common term exists, counterexample not reproduced",
            )
        )
    checked = 1

    for u in ri:
        checked += 1
        if iplus.isdisjoint(u_reach.star(u)):
            failures.append(
                Failure(
                    (f1_a, u),
                    "innermost continuation meets a reduct of the rightmost target",
                    "no common term found",
                )
            )
    return VerificationReport("innermost-weakening-fails", checked, tuple(failures))
