import strategies
from hypothesis import assume, given, settings

from atrs import systems
from atrs.oracles import (
    Exhausted,
    Failure,
    VerificationReport,
    verify_innermost_weakening_fails,
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
    assert report.ok and not report.vacuous


def test_uncurried_step_simulation_on_addition():
    assert_holds(verify_uncurried_step(systems.addition(), 7, FUEL), 72)


def test_uncurried_step_simulation_on_head_switch():
    assert_holds(verify_uncurried_step(systems.head_switch(), 7, FUEL), 12287)


def test_uncurried_step_simulation_on_doubling():
    assert_holds(verify_uncurried_step(systems.doubling(), 7, FUEL), 820)


def test_rightmost_steps_lift_over_partial_uncurrying():
    assert_holds(
        verify_rightmost_simulation(systems.addition(), 5, FUEL), 12
    )
    assert_holds(
        verify_rightmost_simulation(systems.head_switch(), 5, FUEL), 512
    )
    assert_holds(
        verify_rightmost_simulation(systems.parallel_redexes(), 5, FUEL), 376
    )


def test_uncurrying_preserves_normal_forms():
    assert_holds(verify_nf_preservation(systems.addition(), 7), 4132)
    assert_holds(verify_nf_preservation(systems.doubling(), 7), 431)


def test_subterms_of_uncurrying_reducts_trace_back():
    ctx = detect_atrs(systems.addition())
    assert_holds(verify_subterm_commutation(ctx, 7), 19103)
    ctx2 = detect_atrs(systems.doubling())
    assert_holds(verify_subterm_commutation(ctx2, 7), 7632)


def test_weakened_innermost_simulation_counterexample():
    # full innermost simulation fails on the two-rule collapse system, while
    # the rightmost-innermost instances go through
    report = verify_innermost_weakening_fails()
    assert report.property_name == "innermost-weakening-fails"
    assert_holds(report, 2)


def test_empty_system_reports_are_vacuous():
    report = verify_uncurried_step(Trs([]), 3, FUEL)
    assert report.instances_checked == 0
    assert report.vacuous
    assert not report.ok


def test_report_flags():
    x = Var("x")
    bad = VerificationReport("p", 3, failures=(Failure((x,), "a", "b"),))
    assert not bad.ok and not bad.vacuous
    undecided = VerificationReport("p", 3, exhausted=(Exhausted((x,), "why"),))
    assert undecided.ok
    assert undecided.exhausted
    assert VerificationReport("p", 0).vacuous


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
