import random
from itertools import chain, product

import pytest
import samples
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference import evaluate, mat_vec, vec_add

from atrs.complexity import enumerate_terms
from atrs.parsing import format_tmi
from atrs.terms import Fun, Rule, Symbol, Trs, Var, variables
from atrs.tmi import (
    Certificate,
    InterpretationError,
    MatrixInterp,
    MissingSymbolError,
    SearchBudgetExhausted,
    _linearize,
    _orientation_failure,
    _orientation_tests,
    _Slot,
    _slot_table,
    check_tmi,
    identity,
    search_tmi,
    shape_bounds,
)
from atrs.uncurrying import transform
from tmi_reference import (
    _candidate_matrices,
    _candidate_vectors,
    linearize,
    orientation_failure,
    vec_strict_gt,
)
from tmi_reference import search_tmi as reference_search_tmi

X = Var("x")
Y = Var("y")
M11 = ((1, 1), (0, 1))


def interp():
    return samples.addition_tmi()


def combined_addition():
    return transform(samples.system("addition")).combined


def sym(name, arity):
    return Symbol(name, arity)


def test_linearize_constants_and_variables():
    ip = interp()
    assert _linearize(ip.entries, ip.dim, Fun(sym("0", 0))) == ({}, (0, 1))
    assert _linearize(ip.entries, ip.dim, X) == ({"x": identity(2)}, (0, 0))


def test_linearize_composes_through_nesting():
    ip = interp()
    t = Fun(sym("s#1", 1), (X,))
    assert _linearize(ip.entries, ip.dim, t) == ({"x": identity(2)}, (0, 1))

    nested = Fun(sym("add#2", 2), (X, Fun(sym("s#1", 1), (Y,))))
    assert _linearize(ip.entries, ip.dim, nested) == ({"x": M11, "y": M11}, (1, 1))


def test_linearize_and_evaluate_agree():
    ip = interp()
    rng = random.Random(7)
    for t in enumerate_terms(combined_addition().signature, 5):
        coeffs, const = _linearize(ip.entries, ip.dim, t)
        for _ in range(3):
            alpha = {
                v: (rng.randrange(6), rng.randrange(6)) for v in variables(t)
            }
            want = const
            for name, coeff in coeffs.items():
                want = vec_add(want, mat_vec(coeff, alpha[name]))
            assert evaluate(ip, t, alpha) == want


def test_all_addition_rules_strictly_oriented():
    ip = interp()
    for rule in combined_addition().rules:
        assert check_tmi(ip, Trs([rule])).failure is None


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
    assert check_tmi(interp(), Trs([])).failure is None

    def failure(m):
        unary = MatrixInterp(2, {sym("f", 1): ((m,), (0, 0))})
        return check_tmi(unary, Trs([])).failure

    # the checker puts no cap above the diagonal
    assert failure(((1, 3), (0, 1))) is None

    # the search's candidates are exactly the matrices between the bounds
    for dim in (1, 2, 3):
        for cap in (1, 2):
            low, high = shape_bounds(dim, cap)
            entries = [range(lo, hi + 1) for lo, hi in zip(chain(*low), chain(*high))]
            between = [
                tuple(flat[r * dim : (r + 1) * dim] for r in range(dim))
                for flat in product(*entries)
            ]
            assert between == _candidate_matrices(dim, cap)


@given(st.data())
def test_check_tmi_reports_monotonicity_and_triangularity_failures(data):
    dim, arity = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    row = st.tuples(*[st.integers(0, 2)] * dim)
    mats = data.draw(st.tuples(*[st.tuples(*[row] * dim)] * arity))
    f = sym("f", arity)
    verdict = check_tmi(MatrixInterp(dim, {f: (mats, (0,) * dim)}), Trs([]))
    # monotone: top-left entry at least 1; triangular: diagonal entries at
    # most 1 and nothing below the diagonal; every matrix is tested for the
    # first before any for the second
    not_monotone = [i for i, m in enumerate(mats, 1) if m[0][0] == 0]
    not_triangular = [
        i for i, m in enumerate(mats, 1)
        if any(m[r][r] > 1 or any(m[r][:r]) for r in range(dim))
    ]
    if not_monotone:
        assert verdict.failure == (
            f"not monotone: argument {not_monotone[0]} of f/{arity}"
            " has top-left entry 0"
        )
    elif not_triangular:
        assert verdict.failure == (
            f"not triangular: argument {not_triangular[0]} of f/{arity}"
        )
    else:
        assert verdict.ok


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
    assert search_tmi(samples.system("addition"), 1, 2, 500_000) is None


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
    trs = transform(samples.system("doubling")).combined
    assert search_tmi(trs, 2, 1, 100_000) is None


_A, _B = sym("a", 0), sym("b", 0)
_F, _G, _H = sym("f", 1), sym("g", 1), sym("h", 2)


def _terms(names, binary):
    leaves = [Fun(_A), Fun(_B)] + [Var(n) for n in names]

    def extend(inner):
        branches = [st.builds(lambda t: Fun(_F, (t,)), inner),
                    st.builds(lambda t: Fun(_G, (t,)), inner)]
        if binary:
            branches.append(st.builds(lambda s, t: Fun(_H, (s, t)), inner, inner))
        return st.one_of(*branches)

    return st.recursive(st.sampled_from(leaves), extend, max_leaves=4)


@st.composite
def _small_systems(draw, max_rules=3, binary=True):
    """Systems over the constants a and b, the unary f and g and, if binary,
    the binary h."""
    rules = []
    for _ in range(draw(st.integers(1, max_rules))):
        lhs = draw(_terms(("x", "y"), binary).filter(lambda t: isinstance(t, Fun)))
        rules.append(Rule(lhs, draw(_terms(variables(lhs), binary))))
    return Trs(rules)


_FA = Fun(_F, (Fun(_A),))


def _assert_search_agrees_with_generate_and_test(trs, dim, coeff_bound):
    try:
        want = reference_search_tmi(trs, dim, coeff_bound, 5_000)
    except SearchBudgetExhausted:
        assume(False)
    assert search_tmi(trs, dim, coeff_bound, 10_000_000) == want


@settings(max_examples=60, deadline=None)
# (dimension, coefficient bound); at dimension 3 a bound of 2 puts most
# systems beyond the reference's budget
@given(_small_systems(), st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]))
# either argument matrix of h can carry the decrease; which one the first
# certificate uses depends on the order the arguments are branched on
@example(Trs([Rule(Fun(_H, (_FA, _FA)), Fun(_H, (Fun(_A), Fun(_A))))]), (2, 1))
def test_search_agrees_with_generate_and_test(trs, space):
    _assert_search_agrees_with_generate_and_test(trs, *space)


@settings(max_examples=60, deadline=None)
# without a binary symbol the reference decides most systems at dimension 3
# within its budget
@given(_small_systems(binary=False))
def test_search_agrees_with_generate_and_test_at_dimension_three_over_unary_symbols(trs):
    _assert_search_agrees_with_generate_and_test(trs, 3, 1)


@st.composite
def _candidate_entries(draw, signature, dim, bound):
    """One entry per symbol from the reference search's candidate space:
    monotone, triangular, entries bounded."""
    mats = st.sampled_from(_candidate_matrices(dim, bound))
    vecs = st.sampled_from(_candidate_vectors(dim, bound))
    return {
        f: (tuple(draw(mats) for _ in range(f.arity)), draw(vecs))
        for f in sorted(signature)
    }


@st.composite
def _candidate_interpretations(draw, trs):
    dim, bound = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    return MatrixInterp(dim, draw(_candidate_entries(trs.signature, dim, bound)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_linearize_and_orientation_equal_the_reference(data):
    trs = data.draw(_small_systems())
    dim = data.draw(st.integers(1, 3))
    entries = data.draw(_candidate_entries(trs.signature, dim, 3))
    for rule in trs.rules:
        for t in (rule.lhs, rule.rhs):
            assert _linearize(entries, dim, t) == linearize(entries, dim, t)
        assert _orientation_failure(entries, dim, rule) == orientation_failure(
            entries, entries, dim, rule)


def _flat(entries):
    """A symbol's matrix entries, argument by argument, then its vector."""
    mats, vec = entries
    return [*chain.from_iterable(chain(*mats)), *vec]


def test_slot_table_numbers_the_open_entries_in_branching_order():
    # the last argument's matrix first, then the first one's, then the vector
    shape, top, owner = _slot_table([_H, _A], 2, 5)
    assert shape == {_H: ((((1, 2), (0, 3)), ((1, 0), (0, 1))), (4, 5)),
                     _A: ((), (6, 7))}
    assert top == [5, 1, 5, 1, 5, 5, 5, 5]
    assert owner == [_H] * 6 + [_A] * 2
    # slots 0 and 1 are told from the fixed entries 0 and 1 by their type
    assert [type(e) is _Slot for e in _flat(shape[_H])] == [False, True] * 4 + [True] * 2


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_compiled_orientation_tests_equal_the_reference(data):
    # compiled once over a slot table at the search's bounds, the tests read
    # what is written into hi and lo afterwards: the largest completion of a
    # partial interpretation for the lhs and the smallest for the rhs, drawn
    # independently
    trs = data.draw(_small_systems())
    dim = data.draw(st.integers(1, 3))
    shape, top, _ = _slot_table(sorted(trs.signature), dim, 3)
    hi, lo = list(top), [0] * len(top)
    tests = _orientation_tests(trs.rules, dim, shape, hi, lo)
    for _ in range(3):
        high = data.draw(_candidate_entries(trs.signature, dim, 3))
        low = data.draw(_candidate_entries(trs.signature, dim, 3))
        for f, entries in shape.items():
            for e, h, l in zip(_flat(entries), _flat(high[f]), _flat(low[f])):
                if type(e) is _Slot:
                    assert h <= top[e] and l <= top[e]
                    hi[e], lo[e] = h, l
                else:
                    # the candidates have the entries the shape fixes
                    assert e == h == l
        assert [test() for test in tests] == [
            orientation_failure(high, low, dim, rule) is None for rule in trs.rules]


def _renamed_symbol(f):
    """f under a name that is no Python name.  A common prefix, and a suffix
    below every other character the parser accepts in a name, keep the
    names' order and so the search's."""
    return Symbol(f"f.g+{f.name}!", f.arity)


def _renamed(trs):
    """trs with every symbol and variable renamed to a name that is no Python
    name."""

    def rename(t):
        if isinstance(t, Var):
            return Var(f"x'.{t.name}!")
        return Fun(_renamed_symbol(t.symbol), tuple(map(rename, t.args)))

    return Trs([Rule(rename(r.lhs), rename(r.rhs)) for r in trs.rules])


@pytest.mark.parametrize(
    "path, dim, coeff_bound, choices",
    [
        ("trs/add_uncurried.trs", 2, 2, 851),
        ("trs/add_uncurried.trs", 3, 1, 8306),
        ("tests/golden/inputs/double_uncurried.trs", 2, 1, 276),
    ],
    ids=["addition-d2-c2", "addition-d3-c1", "doubling-d2-c1"],
)
def test_input_names_never_reach_the_compiled_source(
    monkeypatch, path, dim, coeff_bound, choices
):
    from atrs import tmi
    from atrs.parsing import parse_trs

    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(tmi, "compile", spy, raising=False)
    trs = parse_trs((samples.TRS.parent / path).read_text(encoding="utf-8")).trs
    renamed = _renamed(trs)
    found = []
    for system in (trs, renamed):
        # the search needs exactly as many entry choices under either name
        with pytest.raises(SearchBudgetExhausted) as err:
            search_tmi(system, dim, coeff_bound, choices - 1)
        assert err.value.attempts == choices
        found.append(search_tmi(system, dim, coeff_bound, choices))
    original, under_new_names = found
    if original is None:
        assert under_new_names is None
    else:
        assert under_new_names == MatrixInterp(dim, {
            _renamed_symbol(f): entry for f, entry in original.entries.items()})
    names = {f.name for f in renamed.signature} | {
        v for r in renamed.rules for v in variables(r.lhs)}
    assert sources and not any(name in s for name in names for s in sources)
    assert not any(c in s for c in "'.!#" for s in sources)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_certified_rules_decrease_under_random_assignments(data):
    trs = data.draw(_small_systems(max_rules=2))
    ip = data.draw(_candidate_interpretations(trs))
    if not check_tmi(ip, trs).ok:
        return
    naturals = st.tuples(*[st.integers(0, 20)] * ip.dim)
    for rule in trs.rules:
        alpha = {v: data.draw(naturals) for v in variables(rule.lhs)}
        assert vec_strict_gt(evaluate(ip, rule.lhs, alpha),
                             evaluate(ip, rule.rhs, alpha))
