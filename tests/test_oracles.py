import samples
import strategies
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from atrs.oracles import (
    Failure,
    VerificationReport,
    verify_nf_preservation,
    verify_rightmost_simulation,
    verify_subterm_commutation,
    verify_uncurried_step,
)
from atrs.terms import Trs, Var
from atrs.uncurrying import TransformError, detect_atrs, transform

FUEL = 200_000


def assert_holds(report, instances):
    assert report.failures == ()
    assert report.exhausted == ()
    assert report.instances_checked == instances
    assert report.status == "ok"


def test_uncurried_step_simulation_on_addition():
    assert_holds(verify_uncurried_step(samples.system("addition"), 7, FUEL), 72)


def test_uncurried_step_simulation_on_head_switch():
    assert_holds(verify_uncurried_step(samples.system("head_switch"), 7, FUEL), 12287)


def test_uncurried_step_simulation_on_doubling():
    assert_holds(verify_uncurried_step(samples.system("doubling"), 7, FUEL), 820)


def test_rightmost_steps_lift_over_partial_uncurrying():
    assert_holds(
        verify_rightmost_simulation(samples.system("addition"), 5, FUEL), 12
    )
    assert_holds(
        verify_rightmost_simulation(samples.system("head_switch"), 5, FUEL), 512
    )
    assert_holds(
        verify_rightmost_simulation(samples.system("parallel_redexes"), 5, FUEL), 376
    )


def test_uncurrying_preserves_normal_forms():
    assert_holds(verify_nf_preservation(samples.system("addition"), 7, FUEL), 4132)
    assert_holds(verify_nf_preservation(samples.system("doubling"), 7, FUEL), 431)


def test_subterms_of_uncurrying_reducts_trace_back():
    ctx = detect_atrs(samples.system("addition"))
    assert_holds(verify_subterm_commutation(ctx, 7, FUEL), 19103)
    ctx2 = detect_atrs(samples.system("doubling"))
    assert_holds(verify_subterm_commutation(ctx2, 7, FUEL), 7632)


def test_empty_system_reports_are_vacuous():
    report = verify_uncurried_step(Trs([]), 3, FUEL)
    assert report.instances_checked == 0
    assert report.vacuous
    assert report.status == "vacuous"


def test_report_flags():
    x = Var("x")
    bad = VerificationReport("p", "a", "b", 3, failures=(Failure((x,)),))
    assert bad.status == "refuted" and not bad.vacuous
    undecided = VerificationReport("p", "a", "b", 3, exhausted=((x,),))
    assert undecided.status == "undecided"
    assert undecided.exhausted
    assert VerificationReport("p", "a", "b", 0).status == "vacuous"
    assert VerificationReport("p", "a", "b", 3).status == "ok"


@settings(max_examples=60, deadline=None)
@given(strategies.applicative_systems())
def test_simulation_oracles_hold_on_random_atrss(trs):
    """The simulation lemmas on systems nobody chose: no oracle may refute
    an instance of an ATRS that uncurrying accepts."""
    try:
        transform(trs)
    except TransformError:
        assume(False)
    for oracle in (
        verify_uncurried_step,
        verify_rightmost_simulation,
        verify_nf_preservation,
    ):
        report = oracle(trs, 4, 200)
        assert report.failures == (), report.failures


@settings(max_examples=60, deadline=None)
@given(strategies.applicative_systems(), st.integers(1, 4))
def test_subterm_commutation_leaves_only_source_terms_undecided(trs, fuel):
    """Once the reducts of s fit in the fuel, so do those of its subterms, so
    the only undecided entries are source terms whose reducts did not fit."""
    try:
        ctx = transform(trs).context
    except TransformError:
        assume(False)
    report = verify_subterm_commutation(ctx, 5, fuel)
    assert report.failures == ()
    assert all(len(entry) == 1 for entry in report.exhausted), report.exhausted
