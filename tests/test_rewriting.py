import functools
from collections import deque

import pytest
import reference
import samples
import strategies
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atrs import complexity
from atrs.cli import main
from atrs.complexity import dc_table, detect_innermost_nontermination, enumerate_terms
from atrs.parsing import format_term, parse_term, parse_trs
from atrs.rewriting import (
    _TABLES,
    _innermost_steps,
    _root_steps,
    Closure,
    Finished,
    FuelExhausted,
    HeightSearch,
    LoopDetected,
    StrategyKind,
    derivation_height,
    is_normal_form_fast,
    normalize,
    redexes,
    RelativeHeightSearch,
    strategy_search,
    successors,
)
from atrs.terms import Fun, is_left_linear, subterms, term_sort_key, variables
from atrs.uncurrying import transform

FULL = StrategyKind.FULL
INNER = StrategyKind.INNERMOST
RI = StrategyKind.RIGHTMOST_INNERMOST


def trs_of(text):
    return parse_trs(text).trs


def term_in(trs, text):
    arities = {s.name: s.arity for s in trs.signature}
    return parse_term(text, frozenset(), arities)


def test_root_step_reports_position_rule_and_result():
    trs = trs_of("(VAR x) (RULES f @ x -> x  a -> b)")
    steps = redexes(trs, term_in(trs, "f @ b"), FULL)
    assert [st.position for st in steps] == [()]
    assert steps[0].rule_index == 0
    assert steps[0].result == term_in(trs, "b")


def test_redexes_are_position_sorted():
    trs = transform(samples.system("head_switch")).combined
    t = term_in(trs, "g @ a")
    assert [st.position for st in redexes(trs, t, FULL)] == [(), (2,)]


def test_strategies_pick_different_redexes():
    trs = transform(samples.system("head_switch")).combined
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


@pytest.mark.parametrize("name", sorted(samples.FILES))
def test_steps_agree_with_the_memo_free_reference(name):
    source = samples.system(name)
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
    their memos carry over as in a dc table.
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
                    reference.assert_loop_replays(trs, got, kind)
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
    trs = transform(samples.system("addition")).combined
    for t in enumerate_terms(trs.signature, 5):
        assert is_normal_form_fast(trs, t) == reference.is_normal_form(trs, t)


def test_normalize_reaches_the_sum():
    trs = samples.system("addition")
    t = term_in(trs, "add @ (s @ 0) @ (s @ 0)")
    want = term_in(trs, "s @ (s @ 0)")
    for kind in (FULL, INNER, RI):
        out = normalize(trs, t, kind, 100)
        assert out == Finished(want)


def test_normalize_detects_cycles():
    trs = samples.system("head_loop")
    t = term_in(trs, "f @ a")
    out = normalize(trs, t, FULL, 50)
    assert isinstance(out, LoopDetected)
    assert out.start == t
    reference.assert_loop_replays(trs, out, FULL)
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
    for table in (_root_steps, *_TABLES.values()):
        table.cache_clear()
    trs = transform(samples.system("doubling")).combined
    table = dc_table(trs, 6, RI, 10_000)
    assert table.incomplete_at is None and table.rows[6].value > 0
    t = table.rows[6].witness
    assert len(Closure(trs, RI, 10_000).star(t)) > 1
    assert successors(trs, t, RI)
    add = samples.system("addition")
    t = term_in(add, "add @ (s @ 0) @ (s @ 0)")
    for kind in (FULL, INNER, RI):
        assert normalize(add, t, kind, 100) == Finished(term_in(add, "s @ (s @ 0)"))


def test_derivation_height_values():
    trs = samples.system("addition")
    t = term_in(trs, "add @ 0 @ (s @ 0)")
    for kind in (FULL, INNER, RI):
        assert derivation_height(trs, t, kind, 1000) == Finished(2)
    assert derivation_height(trs, term_in(trs, "s @ 0"), FULL, 10) == Finished(0)


def test_derivation_height_takes_the_longest_path():
    trs = trs_of("(RULES a -> b  a -> c  c -> d)")
    assert derivation_height(trs, term_in(trs, "a"), FULL, 100) == Finished(2)


def test_derivation_height_loop_witness_replays():
    trs = transform(samples.system("head_loop")).combined
    t = term_in(trs, "f#1(a)")
    out = derivation_height(trs, t, FULL, 1000)
    assert isinstance(out, LoopDetected)
    reference.assert_loop_replays(trs, out, FULL)


def test_derivation_height_fuel():
    trs = trs_of("(RULES c -> s @ c)")
    assert derivation_height(trs, term_in(trs, "c"), FULL, 20) == FuelExhausted()


def test_height_search_memo_is_shared_between_calls():
    trs = samples.system("addition")
    search = strategy_search(trs, INNER)
    t = term_in(trs, "add @ (s @ 0) @ (s @ (s @ 0))")
    first = search.height(t, 10_000)
    assert isinstance(first, Finished)
    assert t in search.memo
    # memo hits do not consume fuel, so fuel=1 still answers instantly
    assert search.height(t, 1) == first


def test_height_rejects_fuel_zero_on_memoised_start_terms():
    trs = samples.system("addition")
    t = term_in(trs, "add @ (s @ 0) @ (s @ 0)")
    empty = trs_of("(RULES )")
    for search in (strategy_search(trs, FULL), RelativeHeightSearch(trs, empty, 100)):
        assert search.height(t, 100) == Finished(2)
        with pytest.raises(ValueError, match="fuel must be positive"):
            search.height(t, 0)


def test_reachable_set_and_fuel():
    trs = trs_of("(RULES a -> b  b -> c)")
    a = term_in(trs, "a")
    assert Closure(trs, FULL, 10).star(a) == {
        a,
        term_in(trs, "b"),
        term_in(trs, "c"),
    }
    assert Closure(trs, FULL, 1).star(a) is None


def test_an_overflowing_closure_set_is_never_memoized():
    # a partial set is never served: the second call searches again
    trs = trs_of("(RULES a -> b  b -> c)")
    a, b = term_in(trs, "a"), term_in(trs, "b")
    closure = Closure(trs, FULL, 2)
    assert closure.star(a) is None
    assert closure.star(a) is None
    assert a not in closure.memo
    assert closure.plus(a) == {b, term_in(trs, "c")}
    assert Closure(trs, FULL, 1).plus(a) is None


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
    """The union of sets, or None if one has more than fuel terms."""
    if any(len(s) > fuel for s in sets):
        return None
    return set().union(*sets)


@pytest.mark.parametrize("name", sorted(samples.FILES))
def test_closure_matches_a_memo_free_search(name):
    # one closure per system, strategy and fuel serves every term, so later
    # terms reuse the memoized sets of earlier ones
    source = samples.system(name)
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
                    assert closure.star(t) == closure_or_fuel([star[t]], fuel)
                    assert closure.plus(t) == closure_or_fuel(plus[t], fuel)


def test_closure_fuel_must_be_positive():
    trs = trs_of("(RULES a -> b)")
    with pytest.raises(ValueError, match="fuel must be positive"):
        Closure(trs, FULL, 0)


def test_relative_successors_wrap_one_main_step():
    main = trs_of("(RULES a -> b)")
    modulo = trs_of("(RULES f -> g)")
    t = term_in(main, "f @ a")
    got = RelativeHeightSearch(main, modulo, 100)._successors(t)
    want = {term_in(main, "f @ b"), term_in(main, "g @ b")}
    assert set(got) == want
    assert got == sorted(got, key=term_sort_key)
    assert RelativeHeightSearch(trs_of("(RULES )"), modulo, 100)._successors(t) == []


def test_relative_fuel_bounds_each_modulo_closure():
    # the pre-closure {f @ a, g @ a} and the post-closure {f @ b, g @ b}
    # hold two terms each, so fuel 2 suffices though their union holds four
    main = trs_of("(RULES a -> b)")
    modulo = trs_of("(RULES f -> g)")
    got = RelativeHeightSearch(main, modulo, 2)._successors(term_in(main, "f @ a"))
    assert got == [term_in(main, "f @ b"), term_in(main, "g @ b")]
    assert RelativeHeightSearch(main, modulo, 1)._successors(
        term_in(main, "f @ a")) is None


@settings(max_examples=100, deadline=None)
@given(strategies.system_pairs())
@example((trs_of("(VAR x) (RULES a @ x -> b @ x)"), trs_of("(RULES b -> c  c -> b)")))
@example((trs_of("(RULES a -> b)"), trs_of("(VAR x) (RULES b @ x -> b @ (b @ x))")))
def test_relative_successors_equal_the_reference_on_random_pairs(pair):
    """One search serves every term, as in a relative table, so its modulo
    closure's memo carries over.  Drawn modulo systems may loop, finitely
    (the first example) or without end (the second); a term on which the
    search or the reference runs out of fuel is skipped."""
    main, modulo = pair
    search = RelativeHeightSearch(main, modulo, _BUDGET)
    for n in range(1, 4):
        for t in reference.terms_of_size(main.signature | modulo.signature, n, 2):
            got = search._successors(t)
            if got is None:
                continue
            try:
                want = reference.relative_successors(
                    main, modulo, t, reference.Budget(_BUDGET))
            except reference.BudgetExceeded:
                continue
            assert got == want, t


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
    reference.assert_loop_replays(search.trs, out, FULL)
    used = {st.rule_index for st in out.trace}
    assert any(i < len(main.rules) for i in used)


def test_relative_loop_witness_is_never_empty():
    # every c_i @ e_j lies on a 30-step main cycle, so the witness search
    # visits far more (term, main step taken) states than the closure fuel
    n = 30
    main = trs_of("(RULES %s)" % " ".join(f"c{i} -> c{(i + 1) % n}" for i in range(n)))
    modulo = trs_of("(RULES %s)" % " ".join(f"e{i} -> e{i + 1}" for i in range(n)))
    search = RelativeHeightSearch(main, modulo, 93)
    out = search.height(term_in(search.trs, "c0 @ e0"), 100_000)
    assert isinstance(out, LoopDetected)
    reference.assert_loop_replays(search.trs, out, FULL)
    assert any(st.rule_index < len(main.rules) for st in out.trace)


def test_relative_height_fuel_exhaustion_from_the_closure():
    main = trs_of("(RULES a -> b)")
    modulo = trs_of("(RULES c -> s @ c)")
    search = RelativeHeightSearch(main, modulo, 15)
    assert search.height(term_in(modulo, "c"), 15) == FuelExhausted()


def _unproved(trs, max_size, max_vars):
    """The terms of every size up to max_size that are not normal forms of
    trs, with every term of size 1.  On a left-linear system the automaton
    proves exactly the normal forms normal, so these are its start terms."""
    return [t for n in range(1, max_size + 1)
            for t in reference.terms_of_size(trs.signature, n, max_vars)
            if n == 1 or not reference.is_normal_form(trs, t)]


def test_innermost_nontermination_detector():
    looping = transform(samples.system("head_loop")).combined
    outcome = detect_innermost_nontermination(looping, 4, 500)
    assert isinstance(outcome, LoopDetected)
    reference.assert_loop_replays(looping, outcome, INNER)

    # a left-linear system's start terms have at most one variable, and
    # above size 1 none of them is a normal form
    terminating = transform(samples.system("head_switch")).combined
    assert is_left_linear(terminating)
    outcome = detect_innermost_nontermination(terminating, 5, 500)
    assert outcome == Finished(len(_unproved(terminating, 5, 1)))

    growing = trs_of("(VAR x) (RULES f @ x -> f @ (s @ x))")
    assert detect_innermost_nontermination(growing, 3, 50) == FuelExhausted()


def test_innermost_loop_search_stops_enumerating_at_the_first_loop(
    monkeypatch, capsys, tmp_path
):
    # f @ a loops at size 3; no larger start term may be built
    asked = []
    stream = complexity._Enumeration.stream

    def recording(self, size, used=0, cut=False):
        asked.append(size)
        return stream(self, size, used, cut)

    monkeypatch.setattr(complexity._Enumeration, "stream", recording)
    path = tmp_path / "loop_at_3.trs"
    path.write_text("(VAR x) (RULES f @ a -> f @ a  g @ x -> x)\n")
    code = main(["verify", str(path), "--property", "innermost-loop",
                 "--max-size", "11", "--json"])
    assert code == 1
    assert '"status": "loop"' in capsys.readouterr().out
    assert asked and max(asked) <= 3


def test_the_loop_search_builds_no_step_table_for_start_terms_proved_normal():
    # f7(g7(h7(x))) is the only redex pattern, over symbols no other test
    # uses: every term up to size 3 is proved normal by the lhs automaton,
    # and f7(g7(h7(x))) at size 4 is not.  The one start term of size 1 is
    # x, as the system is left-linear; no larger start term proved normal
    # is built, nor given a step table.
    trs = trs_of("(VAR x) (RULES f7(g7(h7(x))) -> x)")
    parsed = set(subterms(trs.rules[0].lhs))

    def table_size():
        return _innermost_steps.cache_info().currsize

    def built(n):
        # the interned terms of size n that parsing the rule did not build;
        # each is a unary symbol over a term of size n - 1, which the search
        # built as an argument
        return {Fun(f, (t,)) for t in complexity.terms_of_size(trs.signature, n - 1, 1)
                for f in trs.signature
                if (f, (t,)) in Fun._intern} - parsed

    before = table_size()
    assert detect_innermost_nontermination(trs, 3, 10) == Finished(1)
    assert table_size() == before + 1  # the step table of x alone
    assert built(3) == set()
    assert detect_innermost_nontermination(trs, 4, 10) == Finished(2)
    assert built(4) == set()
    # and of f7(g7(h7(x))) with its subterms g7(h7(x)) and h7(x)
    assert table_size() == before + 4


def test_the_loop_search_enumerates_one_variable_exactly_on_left_linear_systems(
    monkeypatch,
):
    searched = []
    height = HeightSearch.height

    def recording(self, t, fuel):
        searched.append(t)
        return height(self, t, fuel)

    monkeypatch.setattr(HeightSearch, "height", recording)
    addition = samples.system("addition")
    assert detect_innermost_nontermination(addition, 6, 100) == Finished(
        len(searched))
    assert searched == _unproved(addition, 6, 1)
    assert all(len(variables(t)) <= 1 for t in searched)
    # eq @ x @ y is normal only while its arguments differ, so the loop
    # needs two variables; with one, h @ (eq @ x @ eq) loops instead
    eq_loop = trs_of("(VAR x y) (RULES eq @ x @ x -> true"
                     "  h @ (eq @ x @ y) -> h @ (eq @ x @ y))")
    for max_vars, start in ((2, "h @ (eq @ x @ y)"), (1, "h @ (eq @ x @ eq)")):
        out = detect_innermost_nontermination(eq_loop, 7, 100, max_vars)
        assert isinstance(out, LoopDetected)
        assert format_term(out.start) == start
        reference.assert_loop_replays(eq_loop, out, INNER)


@settings(max_examples=60, deadline=None)
@given(st.one_of(strategies.first_order_systems(), strategies.applicative_systems()))
def test_innermost_loop_search_equals_the_reference_on_random_systems(trs):
    """The search, which builds no start term above size 1 that the lhs
    automaton proves normal and enumerates one variable on a left-linear
    system, finds a loop exactly when the reference height search from every
    start term with two variables does.  Otherwise it counts the start terms
    it searched: exactly the terms of size 1 and the other terms that are no
    normal form on a left-linear system, and at least those and at most
    every term on any system.  A start term the reference cannot finish
    within its budget leaves the verdict open; fuel _BUDGET suffices for the
    others, as each search counts distinct terms."""
    steps = functools.cache(lambda s: reference.successors(trs, s, INNER))
    starts = [t for n in range(1, 5)
              for t in reference.terms_of_size(trs.signature, n, 2)]
    looping = undecided = False
    for t in starts:
        try:
            looping = reference.height(steps, t, reference.Budget(_BUDGET)) is None
        except reference.BudgetExceeded:
            undecided = True
            continue
        if looping:
            break
    got = detect_innermost_nontermination(trs, 4, _BUDGET)
    if isinstance(got, LoopDetected):
        reference.assert_loop_replays(trs, got, INNER)
    if looping:
        assert isinstance(got, LoopDetected)
    elif not undecided:
        max_vars = 1 if is_left_linear(trs) else 2
        lower = len(_unproved(trs, 4, max_vars))
        upper = sum(len(reference.terms_of_size(trs.signature, n, max_vars))
                    for n in range(1, 5))
        assert isinstance(got, Finished)
        assert got.value == lower if max_vars == 1 else lower <= got.value <= upper


@settings(max_examples=60, deadline=None)
@given(st.one_of(strategies.first_order_systems(), strategies.applicative_systems()))
def test_the_loop_search_finds_the_loop_that_searching_every_start_term_finds(trs):
    """A driver that searches every start term, the ones proved normal
    included, with one fresh HeightSearch finds the same first loop witness
    as the search, or none when the search finishes.  A proved normal term
    has no successor, so it lies on no cycle and leaves the depth-first
    order of every other term alone.  The driver's fuel _BUDGET leaves the
    verdict open when it runs out; otherwise its memo size plus _BUDGET
    bounds the terms any one call of the search explores."""
    driver = HeightSearch(trs, INNER)
    enumeration = complexity._start_terms(trs, 2)
    outcomes = (driver.height(t, _BUDGET)
                for n in range(1, 5) for t, _, _ in enumeration.stream(n))
    want = next((out for out in outcomes if not isinstance(out, Finished)), None)
    if isinstance(want, FuelExhausted):
        return
    got = detect_innermost_nontermination(trs, 4, len(driver.memo) + _BUDGET)
    if want is None:
        assert isinstance(got, Finished)
    else:
        assert got == want


def test_innermost_and_rightmost_heights_agree_pointwise():
    # innermost derivation height is strategy-order independent
    trs = transform(samples.system("addition")).combined
    for t in enumerate_terms(trs.signature, 6):
        hi = derivation_height(trs, t, INNER, 50_000)
        hr = derivation_height(trs, t, RI, 50_000)
        assert hi == hr
        assert isinstance(hi, Finished)
        hf = derivation_height(trs, t, FULL, 50_000)
        assert hf.value >= hi.value
