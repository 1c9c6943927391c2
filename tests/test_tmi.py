import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from atrs import systems
from atrs.complexity import enumerate_terms
from atrs.parsing import format_tmi
from atrs.terms import Fun, Rule, Symbol, Trs, Var, variables
from atrs.tmi import (
    Certificate,
    InterpretationError,
    MatrixInterp,
    MissingSymbolError,
    SearchBudgetExhausted,
    check_tmi,
    evaluate,
    identity,
    is_monotone,
    is_triangular,
    linearize,
    mat_vec,
    search_tmi,
    strictly_oriented,
    vec_add,
)
from atrs.uncurrying import transform
from tmi_reference import search_tmi as reference_search_tmi

X = Var("x")
Y = Var("y")
M11 = ((1, 1), (0, 1))


def interp():
    return systems.addition_tmi()


def combined_addition():
    return transform(systems.addition()).combined


def sym(name, arity):
    return Symbol(name, arity)


def test_linearize_constants_and_variables():
    ip = interp()
    zero = linearize(ip, Fun(sym("0", 0)))
    assert zero.coeffs == {}
    assert zero.const == (0, 1)
    var = linearize(ip, X)
    assert var.coeffs == {"x": identity(2)}
    assert var.const == (0, 0)


def test_linearize_composes_through_nesting():
    ip = interp()
    t = Fun(sym("s#1", 1), (X,))
    lf = linearize(ip, t)
    assert lf.coeffs == {"x": identity(2)}
    assert lf.const == (0, 1)

    nested = Fun(sym("add#2", 2), (X, Fun(sym("s#1", 1), (Y,))))
    lf2 = linearize(ip, nested)
    assert lf2.coeffs == {"x": M11, "y": M11}
    assert lf2.const == (1, 1)


def test_linearize_and_evaluate_agree():
    ip = interp()
    rng = random.Random(7)
    for t in enumerate_terms(combined_addition().signature, 5):
        lf = linearize(ip, t)
        for _ in range(3):
            alpha = {
                v: (rng.randrange(6), rng.randrange(6)) for v in variables(t)
            }
            want = lf.const
            for name, coeff in lf.coeffs.items():
                want = vec_add(want, mat_vec(coeff, alpha[name]))
            assert evaluate(ip, t, alpha) == want


def test_all_addition_rules_strictly_oriented():
    ip = interp()
    trs = combined_addition()
    assert all(strictly_oriented(ip, rule) for rule in trs.rules)


def test_orientation_is_sound_for_concrete_assignments():
    # absolute positiveness implies a strict drop under every assignment
    ip = interp()
    rng = random.Random(0)
    for rule in combined_addition().rules:
        names = set(variables(rule.lhs)) | set(variables(rule.rhs))
        for _ in range(200):
            alpha = {v: (rng.randrange(6), rng.randrange(6)) for v in names}
            left = evaluate(ip, rule.lhs, alpha)
            right = evaluate(ip, rule.rhs, alpha)
            assert left[0] > right[0]
            assert all(l >= r for l, r in zip(left, right))


def test_check_tmi_certifies_addition():
    verdict = check_tmi(interp(), combined_addition())
    assert verdict.ok
    assert verdict.certificate == Certificate(
        "upper-bound", 2, "dc(n) in O(n^2)"
    )


def test_monotone_and_triangular_predicates():
    assert is_monotone(interp())
    assert is_triangular(interp())

    def unary(m):
        return MatrixInterp(2, {sym("f", 1): ((m,), (0, 0))})

    assert not is_monotone(unary(((0, 1), (0, 1))))
    assert is_monotone(unary(((1, 0), (1, 1))))
    assert not is_triangular(unary(((1, 0), (1, 1))))
    assert not is_triangular(unary(((2, 0), (0, 1))))
    assert not is_triangular(unary(((1, 0), (0, 2))))
    assert is_triangular(unary(((1, 3), (0, 1))))


def test_check_tmi_reports_monotonicity_and_triangularity_failures():
    f = sym("f", 1)
    trs = Trs([Rule(Fun(f, (X,)), X)])
    bad_mono = MatrixInterp(1, {f: ((((0,),),), (1,))})
    verdict = check_tmi(bad_mono, trs)
    assert not verdict.ok
    assert "not monotone" in verdict.failure

    bad_tri = MatrixInterp(2, {f: ((((1, 0), (1, 1)),), (1, 0))})
    verdict = check_tmi(bad_tri, trs)
    assert not verdict.ok
    assert "not triangular" in verdict.failure


def test_check_tmi_names_the_unoriented_rule():
    a, b = sym("a", 0), sym("b", 0)
    trs = Trs([Rule(Fun(a), Fun(b))])
    flat = MatrixInterp(1, {a: ((), (1,)), b: ((), (1,))})
    verdict = check_tmi(flat, trs)
    assert not verdict.ok
    assert verdict.failing_rule_index == 0
    assert "rule 1" in verdict.failure
    assert "constant part" in verdict.failure


def test_check_tmi_names_the_undominated_coefficient():
    f, g = sym("f", 1), sym("g", 1)
    trs = Trs([Rule(Fun(f, (X,)), Fun(g, (X,)))])
    ip = MatrixInterp(
        2,
        {
            f: ((((1, 0), (0, 0)),), (1, 0)),
            g: ((identity(2),), (0, 0)),
        },
    )
    verdict = check_tmi(ip, trs)
    assert not verdict.ok
    assert verdict.failing_rule_index == 0
    assert "coefficient of x" in verdict.failure


def test_check_tmi_names_the_first_undominated_coefficient_in_name_order():
    # the constants drop, but neither x nor y is dominated; y occurs first
    f, g = sym("f", 2), sym("g", 2)
    trs = Trs([Rule(Fun(f, (Y, X)), Fun(g, (Y, X)))])
    ip = MatrixInterp(
        2,
        {
            f: ((identity(2), identity(2)), (1, 0)),
            g: ((M11, M11), (0, 0)),
        },
    )
    verdict = check_tmi(ip, trs)
    assert not verdict.ok
    assert verdict.failing_rule_index == 0
    assert verdict.failure == (
        "rule 1 not strictly oriented: coefficient of x is not dominated"
    )
    assert not strictly_oriented(ip, trs.rules[0])


def test_check_tmi_requires_full_coverage():
    ip = MatrixInterp(1, {sym("a", 0): ((), (1,))})
    a, b = Fun(sym("a", 0)), Fun(sym("b", 0))
    with pytest.raises(MissingSymbolError):
        check_tmi(ip, Trs([Rule(a, b)]))
    # an unoriented first rule does not hide the missing symbol in the second
    with pytest.raises(MissingSymbolError):
        check_tmi(ip, Trs([Rule(a, a), Rule(a, b)]))


def test_check_tmi_on_an_empty_system():
    verdict = check_tmi(interp(), Trs([]))
    assert verdict.ok
    assert verdict.certificate.degree == 2


def test_interp_validation():
    f = sym("f", 1)
    with pytest.raises(InterpretationError):
        MatrixInterp(0, {})
    with pytest.raises(InterpretationError):
        MatrixInterp(2, {f: ((), (0, 0))})
    with pytest.raises(InterpretationError):
        MatrixInterp(2, {f: ((((1, 0),),), (0, 0))})
    with pytest.raises(InterpretationError):
        MatrixInterp(2, {f: ((((1, 0), (0, -1)),), (0, 0))})
    with pytest.raises(InterpretationError):
        MatrixInterp(2, {f: ((identity(2),), (0, 0, 0))})
    ip = MatrixInterp(2, {f: ((identity(2),), (0, 0))})
    with pytest.raises(MissingSymbolError):
        ip.for_symbol(sym("g", 1))


def test_evaluate_requires_values_for_all_variables():
    with pytest.raises(InterpretationError):
        evaluate(interp(), X, {})


def test_search_finds_a_checkable_certificate():
    trs = combined_addition()
    found = search_tmi(trs, 2, 2, 50_000)
    assert found is not None
    verdict = check_tmi(found, trs)
    assert verdict.ok
    assert verdict.certificate.degree == 2
    # the search is deterministic
    assert search_tmi(trs, 2, 2, 50_000) == found


def test_search_on_tiny_systems():
    from atrs.parsing import parse_trs

    easy = parse_trs("(RULES a -> b)").trs
    found = search_tmi(easy, 1, 1, 1000)
    assert found is not None
    assert check_tmi(found, easy).ok

    hopeless = parse_trs("(RULES c -> c)").trs
    assert search_tmi(hopeless, 1, 2, 100_000) is None


def test_search_budget_is_enforced():
    trs = combined_addition()
    with pytest.raises(SearchBudgetExhausted) as err:
        search_tmi(trs, 2, 2, 50)
    assert err.value.attempts == 51


def test_search_validates_parameters():
    trs = combined_addition()
    with pytest.raises(ValueError):
        search_tmi(trs, 0, 2, 100)
    with pytest.raises(ValueError):
        search_tmi(trs, 2, 0, 100)
    with pytest.raises(ValueError):
        search_tmi(trs, 2, 2, 0)


def test_search_exhausts_dimension_one_for_curried_addition():
    assert search_tmi(systems.addition(), 1, 2, 500_000) is None


# the first dimension-2 certificates for uncurried addition in candidate
# order, with coefficients up to 1 and up to 2
ADDITION_CERTIFICATE_C1 = (
    "0/0 : [] + [0; 0]\n"
    "add/0 : [] + [0; 1]\n"
    "add#1/1 : [ [1 0; 0 1] ] + [0; 1]\n"
    "add#2/2 : [ [1 0; 0 1], [1 1; 0 1] ] + [1; 0]\n"
    "app/2 : [ [1 1; 0 1], [1 1; 0 1] ] + [1; 0]\n"
    "s/0 : [] + [0; 1]\n"
    "s#1/1 : [ [1 0; 0 1] ] + [0; 1]\n"
)
ADDITION_CERTIFICATE_C2 = (
    "0/0 : [] + [0; 0]\n"
    "add/0 : [] + [0; 0]\n"
    "add#1/1 : [ [1 0; 0 1] ] + [0; 0]\n"
    "add#2/2 : [ [1 0; 0 1], [1 1; 0 1] ] + [1; 0]\n"
    "app/2 : [ [1 0; 0 1], [1 1; 0 1] ] + [2; 0]\n"
    "s/0 : [] + [0; 1]\n"
    "s#1/1 : [ [1 0; 0 1] ] + [0; 1]\n"
)


@pytest.mark.parametrize(
    "coeff_bound, expected",
    [(1, ADDITION_CERTIFICATE_C1), (2, ADDITION_CERTIFICATE_C2)],
    ids=["c1", "c2"],
)
def test_search_returns_the_first_certificate_in_candidate_order(
    coeff_bound, expected
):
    found = search_tmi(combined_addition(), 2, coeff_bound, 100_000)
    assert format_tmi(found) == expected


def test_search_refutes_uncurried_doubling_at_dimension_two():
    trs = transform(systems.doubling()).combined
    assert search_tmi(trs, 2, 1, 100_000) is None


_A, _B = sym("a", 0), sym("b", 0)
_F, _G, _H = sym("f", 1), sym("g", 1), sym("h", 2)


def _terms(names):
    leaves = [Fun(_A), Fun(_B)] + [Var(n) for n in names]
    return st.recursive(
        st.sampled_from(leaves),
        lambda inner: st.one_of(
            st.builds(lambda t: Fun(_F, (t,)), inner),
            st.builds(lambda t: Fun(_G, (t,)), inner),
            st.builds(lambda s, t: Fun(_H, (s, t)), inner, inner),
        ),
        max_leaves=4,
    )


@st.composite
def _small_systems(draw):
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        lhs = draw(_terms(("x", "y")).filter(lambda t: isinstance(t, Fun)))
        rules.append(Rule(lhs, draw(_terms(variables(lhs)))))
    return Trs(rules)


_FA = Fun(_F, (Fun(_A),))


@settings(max_examples=60, deadline=None)
@given(_small_systems(), st.integers(1, 2), st.integers(1, 2))
# either argument matrix of h can carry the decrease; which one the first
# certificate uses depends on the order the arguments are branched on
@example(Trs([Rule(Fun(_H, (_FA, _FA)), Fun(_H, (Fun(_A), Fun(_A))))]), 2, 1)
def test_search_agrees_with_generate_and_test(trs, dim, coeff_bound):
    try:
        want = reference_search_tmi(trs, dim, coeff_bound, 5_000)
    except SearchBudgetExhausted:
        assume(False)
    assert search_tmi(trs, dim, coeff_bound, 10_000_000) == want
