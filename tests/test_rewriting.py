import functools
from collections import deque

import pytest
import reference
import strategies
from hypothesis import given, settings
from hypothesis import strategies as st

from atrs import systems
from atrs.complexity import dc_table, detect_innermost_nontermination, enumerate_terms
from atrs.parsing import parse_term, parse_trs
from atrs.rewriting import (
    _TABLES,
    _full_steps,
    _root_steps,
    Closure,
    Finished,
    FuelExhausted,
    FuelExhaustedError,
    HeightSearch,
    LoopDetected,
    StrategyKind,
    clear_caches,
    derivation_height,
    is_normal_form_fast,
    normalize,
    reachable,
    redexes,
    relative_successors,
    RelativeHeightSearch,
    strategy_search,
    successors,
)
from atrs.terms import term_sort_key
from atrs.uncurrying import transform

FULL = StrategyKind.FULL
INNER = StrategyKind.INNERMOST
RI = StrategyKind.RIGHTMOST_INNERMOST


def trs_of(text):
    return parse_trs(text).trs


def term_in(trs, text):
    arities = {s.name: s.arity for s in trs.signature}
    return parse_term(text, frozenset(), arities)


def replay(trs, witness, kind=FULL):
    """Check that a loop witness is a real cycle: every step result follows
    from its predecessor under the strategy and the last one closes it."""
    assert witness.trace
    cur = witness.start
    for st in witness.trace:
        assert st.result in successors(trs, cur, kind)
        cur = st.result
    assert cur == witness.start


def test_root_step_reports_rule_and_matcher():
    trs = trs_of("(VAR x) (RULES f @ x -> x  a -> b)")
    steps = redexes(trs, term_in(trs, "f @ b"), FULL)
    assert [st.position for st in steps] == [()]
    assert steps[0].rule_index == 0
    assert steps[0].matcher == {"x": term_in(trs, "b")}
    assert steps[0].result == term_in(trs, "b")


def test_redexes_are_position_sorted():
    trs = transform(systems.head_switch()).combined
    t = term_in(trs, "g @ a")
    assert [st.position for st in redexes(trs, t, FULL)] == [(), (2,)]


def test_strategies_pick_different_redexes():
    trs = transform(systems.head_switch()).combined
    fa = term_in(trs, "f @ a")
    assert {st.position for st in redexes(trs, fa, FULL)} == {(1,), (2,)}
    assert {st.position for st in redexes(trs, fa, INNER)} == {(1,), (2,)}
    assert [st.position for st in redexes(trs, fa, RI)] == [(2,)]
    ga = term_in(trs, "g @ a")
    assert {st.position for st in redexes(trs, ga, FULL)} == {(), (2,)}
    assert {st.position for st in redexes(trs, ga, INNER)} == {(2,)}
    assert [st.position for st in redexes(trs, ga, RI)] == [(2,)]
    assert redexes(trs, term_in(trs, "h"), RI) == []


def test_rightmost_means_lexicographically_greatest_position():
    trs = trs_of("(RULES a -> b)")
    t = term_in(trs, "(a @ a) @ a")
    inner = {st.position for st in redexes(trs, t, INNER)}
    assert inner == {(1, 1), (1, 2), (2,)}
    assert [st.position for st in redexes(trs, t, RI)] == [(2,)]


@pytest.mark.parametrize("name", sorted(systems.SOURCES))
def test_steps_agree_with_the_memo_free_reference(name):
    source = systems.system(name)
    for trs in (source, transform(source).combined):
        for t in enumerate_terms(trs.signature, 5):
            for kind in (FULL, INNER, RI):
                want = reference.steps(trs, t, kind)
                assert redexes(trs, t, kind) == want, (t, kind)
                assert successors(trs, t, kind) == reference.successors(
                    trs, t, kind
                ), (t, kind)


def _agrees_with_the_reference(trs):
    for t in enumerate_terms(trs.signature, 4):
        for kind in (FULL, INNER, RI):
            assert redexes(trs, t, kind) == reference.steps(trs, t, kind), (t, kind)
            assert successors(trs, t, kind) == reference.successors(
                trs, t, kind
            ), (t, kind)


@settings(max_examples=100, deadline=None)
@given(strategies.first_order_systems())
def test_steps_on_random_first_order_systems_agree_with_the_reference(trs):
    _agrees_with_the_reference(trs)


@settings(max_examples=100, deadline=None)
@given(strategies.applicative_systems())
def test_steps_on_random_applicative_systems_agree_with_the_reference(trs):
    _agrees_with_the_reference(trs)


_BUDGET = 100


@settings(max_examples=60, deadline=None)
@given(st.one_of(strategies.first_order_systems(), strategies.applicative_systems()))
def test_heights_and_closures_equal_the_reference_on_random_systems(trs):
    """One search and one closure per strategy serve every start term, so
    their memos and the search's normal set carry over as in a dc table.
    A start term the reference cannot finish within its budget is skipped;
    for the others the fuel suffices, since each counts distinct terms."""
    for kind in StrategyKind:
        steps = functools.cache(lambda s: reference.successors(trs, s, kind))
        search, closure = HeightSearch(trs, kind), Closure(trs, kind, _BUDGET)
        for t in enumerate_terms(trs.signature, 4):
            try:
                want = reference.height(steps, t, reference.Budget(_BUDGET))
            except reference.BudgetExceeded:
                pass
            else:
                got = search.height(t, _BUDGET)
                if want is None:
                    assert isinstance(got, LoopDetected), (t, kind)
                else:
                    assert got == Finished(want), (t, kind)
            try:
                reached = reference.star(steps, t, reference.Budget(_BUDGET))
            except reference.BudgetExceeded:
                continue
            assert closure.star(t) == reached, (t, kind)


_INDEX_EDGE_CASES = {
    "constant lhs": ("(RULES a -> b  f(a, a) -> b)", ["f(a, f(b, a))"]),
    "variable first argument": (
        "(VAR x) (RULES f(x, a) -> g(x)  f(g(x), x) -> x  g(x) -> x)",
        ["f(g(a), a)", "g(f(b, a))", "f(g(b), g(b))"],
    ),
    "constant first argument": (
        "(VAR x) (RULES f(a, x) -> x  f(b, x) -> a)", ["f(a, f(b, b))", "f(f(a, b), a)"]
    ),
    "repeated variable": (
        "(VAR x y) (RULES f(x, x) -> a  g(f(x, y)) -> f(y, x))",
        ["g(f(a, a))", "f(g(a), g(a))", "g(f(a, b))"],
    ),
    "spine length 3": (
        "(VAR x y z) (RULES k @ x @ y @ z -> x  k @ x -> k  c @ c -> k @ c)",
        ["k @ a @ (c @ c)", "k @ (c @ c) @ a @ c", "k @ a @ c @ (k @ a @ c @ c) @ a"],
    ),
}


@pytest.mark.parametrize("case", sorted(_INDEX_EDGE_CASES))
def test_rule_index_edge_cases_agree_with_the_reference(case):
    text, extra = _INDEX_EDGE_CASES[case]
    trs = trs_of(text)
    terms = enumerate_terms(trs.signature, 5) + [term_in(trs, t) for t in extra]
    for t in terms:
        for kind in (FULL, INNER, RI):
            want = reference.steps(trs, t, kind)
            assert list(_TABLES[kind](trs, t)) == [st.result for st in want]
            assert redexes(trs, t, kind) == want, (t, kind)


def test_successors_are_distinct_and_in_step_order():
    trs = trs_of("(RULES f -> g  a -> b)")
    t = term_in(trs, "f @ a")
    assert successors(trs, t, FULL) == [
        term_in(trs, "g @ a"),
        term_in(trs, "f @ b"),
    ]
    dup = trs_of("(RULES a -> b  a -> b)")
    assert successors(dup, term_in(dup, "a"), FULL) == [term_in(dup, "b")]


def test_fast_normal_form_check_agrees_with_the_slow_one():
    trs = transform(systems.addition()).combined
    for t in enumerate_terms(trs.signature, 5):
        assert is_normal_form_fast(trs, t) == reference.is_normal_form(trs, t)


def test_normalize_reaches_the_sum():
    trs = systems.addition()
    t = term_in(trs, "add @ (s @ 0) @ (s @ 0)")
    want = term_in(trs, "s @ (s @ 0)")
    for kind in (FULL, INNER, RI):
        out = normalize(trs, t, kind, 100)
        assert out == Finished(want)


def test_normalize_detects_cycles():
    trs = systems.head_loop()
    t = term_in(trs, "f @ a")
    out = normalize(trs, t, FULL, 50)
    assert isinstance(out, LoopDetected)
    assert out.witness.start == t
    replay(trs, out.witness)
    # innermost evaluation escapes: the reducible head blocks the root rule
    assert normalize(trs, t, INNER, 50) == Finished(term_in(trs, "g @ a"))


def test_normalize_runs_out_of_fuel_on_growing_terms():
    trs = trs_of("(RULES c -> s @ c)")
    assert normalize(trs, term_in(trs, "c"), FULL, 10) == FuelExhausted()
    with pytest.raises(ValueError):
        normalize(trs, term_in(trs, "c"), FULL, 0)


def test_search_paths_build_no_step_records(monkeypatch):
    class NoRecords:
        def __init__(self, *args):
            raise AssertionError("a step record was built on a search path")

    monkeypatch.setattr("atrs.rewriting.RewriteStep", NoRecords)
    clear_caches()
    trs = transform(systems.doubling()).combined
    table = dc_table(trs, 6, RI, 10_000)
    assert table.complete and table.rows[6].value > 0
    t = table.rows[6].witness
    assert len(Closure(trs, RI, 10_000).star(t)) > 1
    assert successors(trs, t, RI)
    add = systems.addition()
    t = term_in(add, "add @ (s @ 0) @ (s @ 0)")
    for kind in (FULL, INNER, RI):
        assert normalize(add, t, kind, 100) == Finished(term_in(add, "s @ (s @ 0)"))


def test_derivation_height_values():
    trs = systems.addition()
    t = term_in(trs, "add @ 0 @ (s @ 0)")
    for kind in (FULL, INNER, RI):
        assert derivation_height(trs, t, kind, 1000) == Finished(2)
    assert derivation_height(trs, term_in(trs, "s @ 0"), FULL, 10) == Finished(0)


def test_derivation_height_takes_the_longest_path():
    trs = trs_of("(RULES a -> b  a -> c  c -> d)")
    assert derivation_height(trs, term_in(trs, "a"), FULL, 100) == Finished(2)


def test_derivation_height_loop_witness_replays():
    trs = transform(systems.head_loop()).combined
    t = term_in(trs, "f#1(a)")
    out = derivation_height(trs, t, FULL, 1000)
    assert isinstance(out, LoopDetected)
    replay(trs, out.witness)


def test_derivation_height_fuel():
    trs = trs_of("(RULES c -> s @ c)")
    assert derivation_height(trs, term_in(trs, "c"), FULL, 20) == FuelExhausted()


def test_height_search_memo_is_shared_between_calls():
    trs = systems.addition()
    search = strategy_search(trs, INNER)
    t = term_in(trs, "add @ (s @ 0) @ (s @ (s @ 0))")
    first = search.height(t, 10_000)
    assert isinstance(first, Finished)
    assert t in search.memo
    # memo hits do not consume fuel, so fuel=1 still answers instantly
    assert search.height(t, 1) == first


def test_reachable_set_and_fuel():
    trs = trs_of("(RULES a -> b  b -> c)")
    a = term_in(trs, "a")
    assert reachable(trs, a, 10) == {
        a,
        term_in(trs, "b"),
        term_in(trs, "c"),
    }
    with pytest.raises(FuelExhaustedError):
        reachable(trs, a, 1)


def bfs_closure(trs, t, kind):
    """Terms reachable from t, by a breadth-first search without a memo."""
    seen = {t}
    queue = deque([t])
    while queue:
        for u in successors(trs, queue.popleft(), kind):
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return seen


def closure_or_fuel(sets, fuel):
    """The union of sets, or FuelExhaustedError if one has more than fuel terms."""
    if any(len(s) > fuel for s in sets):
        return FuelExhaustedError
    return set().union(*sets)


def outcome_of(closure_method, t):
    try:
        return set(closure_method(t))
    except FuelExhaustedError:
        return FuelExhaustedError


@pytest.mark.parametrize("name", sorted(systems.SOURCES))
def test_closure_matches_a_memo_free_search(name):
    # one closure per system, strategy and fuel serves every term, so later
    # terms reuse the memoized sets of earlier ones
    source = systems.system(name)
    for trs in (source, transform(source).combined):
        terms = enumerate_terms(trs.signature, 5)
        for kind in (FULL, INNER, RI):
            star = {t: bfs_closure(trs, t, kind) for t in terms}
            plus = {
                t: [bfs_closure(trs, u, kind) for u in successors(trs, t, kind)]
                for t in terms
            }
            for fuel in (3, 10_000):
                closure = Closure(trs, kind, fuel)
                for t in terms:
                    want = closure_or_fuel([star[t]], fuel)
                    assert outcome_of(closure.star, t) == want
                    want = closure_or_fuel(plus[t], fuel)
                    assert outcome_of(closure.plus, t) == want


def test_closure_fuel_must_be_positive():
    trs = trs_of("(RULES a -> b)")
    with pytest.raises(ValueError, match="fuel must be positive"):
        Closure(trs, FULL, 0)


def test_relative_successors_wrap_one_main_step():
    main = trs_of("(RULES a -> b)")
    modulo = trs_of("(RULES f -> g)")
    t = term_in(main, "f @ a")
    got = relative_successors(main, modulo, t, 100)
    want = {term_in(main, "f @ b"), term_in(main, "g @ b")}
    assert set(got) == want
    assert got == sorted(got, key=term_sort_key)
    assert relative_successors(trs_of("(RULES )"), modulo, t, 100) == []


def test_relative_fuel_bounds_each_modulo_closure():
    # the pre-closure {f @ a, g @ a} and the post-closure {f @ b, g @ b}
    # hold two terms each, so fuel 2 suffices though their union holds four
    main = trs_of("(RULES a -> b)")
    modulo = trs_of("(RULES f -> g)")
    got = relative_successors(main, modulo, term_in(main, "f @ a"), 2)
    assert got == [term_in(main, "f @ b"), term_in(main, "g @ b")]
    with pytest.raises(FuelExhaustedError):
        relative_successors(main, modulo, term_in(main, "f @ a"), 1)


def test_relative_height_counts_main_steps_only():
    main = trs_of("(RULES a -> b)")
    modulo = trs_of("(RULES f -> g)")
    search = RelativeHeightSearch(main, modulo, 1000)
    assert search.height(term_in(main, "f @ a"), 1000) == Finished(1)
    assert search.height(term_in(main, "f @ b"), 1000) == Finished(0)


def test_relative_height_zero_does_not_make_an_argument_normal():
    # a has relative height 0 but a modulo step, which opens a main redex
    main = trs_of("(RULES c @ b -> a)")
    modulo = trs_of("(RULES a -> b)")
    search = RelativeHeightSearch(main, modulo, 100)
    for name in ("a", "c"):
        assert search.height(term_in(main, name), 100) == Finished(0)
    assert search.height(term_in(main, "c @ a"), 100) == Finished(1)


def test_relative_height_loop_witness_mixes_both_systems():
    main = trs_of("(RULES a -> b)")
    modulo = trs_of("(RULES b -> a)")
    search = RelativeHeightSearch(main, modulo, 1000)
    out = search.height(term_in(main, "f @ a"), 1000)
    assert isinstance(out, LoopDetected)
    replay(search.combined, out.witness)
    used = {st.rule_index for st in out.witness.trace}
    assert any(i < len(main.rules) for i in used)


def test_relative_loop_witness_is_never_empty():
    # every c_i @ e_j lies on a 30-step main cycle, so the witness search
    # visits far more (term, main step taken) states than the closure fuel
    n = 30
    main = trs_of("(RULES %s)" % " ".join(f"c{i} -> c{(i + 1) % n}" for i in range(n)))
    modulo = trs_of("(RULES %s)" % " ".join(f"e{i} -> e{i + 1}" for i in range(n)))
    search = RelativeHeightSearch(main, modulo, 93)
    out = search.height(term_in(search.combined, "c0 @ e0"), 100_000)
    assert isinstance(out, LoopDetected)
    replay(search.combined, out.witness)
    assert any(st.rule_index < len(main.rules) for st in out.witness.trace)


def test_relative_height_fuel_exhaustion_from_the_closure():
    main = trs_of("(RULES a -> b)")
    modulo = trs_of("(RULES c -> s @ c)")
    search = RelativeHeightSearch(main, modulo, 15)
    assert search.height(term_in(modulo, "c"), 15) == FuelExhausted()


def test_innermost_nontermination_detector():
    looping = transform(systems.head_loop()).combined
    outcome = detect_innermost_nontermination(looping, 4, 500)
    assert isinstance(outcome, LoopDetected)
    replay(looping, outcome.witness, INNER)

    terminating = transform(systems.head_switch()).combined
    outcome = detect_innermost_nontermination(terminating, 5, 500)
    assert outcome == Finished(len(list(enumerate_terms(terminating.signature, 5))))

    growing = trs_of("(VAR x) (RULES f @ x -> f @ (s @ x))")
    assert detect_innermost_nontermination(growing, 3, 50) == FuelExhausted()


def test_a_normal_start_term_with_normal_arguments_fills_no_step_table():
    # a system no other test builds, so no step table holds its terms yet
    trs = trs_of("(VAR x) (RULES nfa @ (nfb @ x) -> x)")
    search = strategy_search(trs, FULL)

    def table_sizes():
        return (_full_steps.cache_info().currsize,
                _root_steps.cache_info().currsize)

    before = table_sizes()
    normal = [term_in(trs, s) for s in ("nfa", "nfb", "nfb @ nfa", "nfa @ nfb")]
    for t in normal:
        assert search.height(t, 10) == Finished(0)
    assert table_sizes() == before
    assert set(normal) <= search.normal
    # an argument never met as a start term is not known normal
    assert search.height(term_in(trs, "nfb @ (nfb @ nfb)"), 10) == Finished(0)
    assert table_sizes() != before
    assert search.height(term_in(trs, "nfa @ (nfb @ nfa)"), 10) == Finished(1)


def test_innermost_and_rightmost_heights_agree_pointwise():
    # innermost derivation height is strategy-order independent
    trs = transform(systems.addition()).combined
    for t in enumerate_terms(trs.signature, 6):
        hi = derivation_height(trs, t, INNER, 50_000)
        hr = derivation_height(trs, t, RI, 50_000)
        assert hi == hr
        assert isinstance(hi, Finished)
        hf = derivation_height(trs, t, FULL, 50_000)
        assert hf.value >= hi.value


def test_clear_caches_keeps_results_stable():
    trs = systems.addition()
    t = term_in(trs, "add @ 0 @ (s @ 0)")
    before = derivation_height(trs, t, FULL, 1000)
    clear_caches()
    assert derivation_height(trs, t, FULL, 1000) == before
