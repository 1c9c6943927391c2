import itertools
from pathlib import Path

import pytest
import reference
import samples
import strategies
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import canonical, size

from atrs.complexity import (
    ComplexityTable,
    DcRow,
    _Enumeration,
    dc_relative_table,
    dc_table,
    enumerate_terms,
    terms_of_size,
)
from atrs.parsing import parse_term, parse_trs
from atrs.rewriting import (
    Finished,
    HeightSearch,
    LoopDetected,
    RelativeHeightSearch,
    StrategyKind,
    derivation_height,
)
from atrs.terms import APP, Fun, Symbol, Var, is_left_linear
from atrs.uncurrying import TransformError, transform

FULL = StrategyKind.FULL
INNER = StrategyKind.INNERMOST
TRS = Path(__file__).resolve().parent.parent / "trs"

X = Var("x")
Y = Var("y")
A0 = Symbol("a", 0)
F1 = Symbol("f", 1)
O2 = Symbol("o", 2)


def trs_of(text):
    return parse_trs(text).trs


def test_single_constant_signature():
    assert enumerate_terms({A0}, 1) == [X, Fun(A0)]


def test_constant_and_unary_signature():
    got = enumerate_terms({A0, F1}, 2, max_vars=1)
    assert got == [X, Fun(A0), Fun(F1, (X,)), Fun(F1, (Fun(A0),))]


def test_sizes_are_node_counts():
    for t in enumerate_terms({A0, F1, O2}, 4):
        assert 1 <= size(t) <= 4
    for t in terms_of_size({A0, O2}, 3):
        assert size(t) == 3


def brute_force(symbols, max_size, max_vars):
    """Independent reference enumeration: all leaf/branch shapes, all symbol
    assignments, deduplicated modulo renaming."""
    names = [f"b{i}" for i in range(max_vars)]

    def build(size):
        if size >= 1:
            for v in names:
                if size == 1:
                    yield Var(v)
            for f in symbols:
                if f.arity == 0 and size == 1:
                    yield Fun(f)
                elif f.arity >= 1 and size >= f.arity + 1:
                    for split in splits(size - 1, f.arity):
                        for args in itertools.product(
                            *[list(build(s)) for s in split]
                        ):
                            yield Fun(f, args)

    def splits(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(1, total - parts + 2):
            for rest in splits(total - head, parts - 1):
                yield (head,) + rest

    seen = set()
    for size in range(1, max_size + 1):
        for t in build(size):
            seen.add(canonical(t))
    return seen


def test_enumeration_matches_brute_force_reference():
    symbols = (O2, Symbol("f", 0), A0)
    got = {canonical(t) for t in enumerate_terms(symbols, 3, max_vars=1)}
    want = brute_force(symbols, 3, 1)
    assert got == want
    assert len(got) == 12

    got2 = {canonical(t) for t in enumerate_terms((A0, F1, O2), 5, max_vars=2)}
    want2 = brute_force((A0, F1, O2), 5, 2)
    assert got2 == want2


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(strategies.first_order_systems(), strategies.applicative_systems()),
    st.sampled_from([0, 1, 2]),
)
def test_enumeration_equals_the_recursive_reference_in_order(trs, max_vars):
    signature = trs.signature
    want = []
    for n in range(7):
        row = reference.terms_of_size(signature, n, max_vars)
        assert list(terms_of_size(signature, n, max_vars)) == row, n
        want += row
    assert enumerate_terms(signature, 6, max_vars) == want


@settings(max_examples=60, deadline=None)
@given(strategies.system_pairs())
def test_terms_proved_normal_are_normal_forms(pair):
    """A term that the state automaton over both systems' left-hand sides
    proves normal is a normal form of both; when both are left-linear, so
    is every normal form; and the cut stream drops exactly those terms.
    The reference-table properties below check the tables the cut serves."""
    main, modulo = pair
    exact = is_left_linear(main) and is_left_linear(modulo)
    lhss = [rule.lhs for rule in main.rules + modulo.rules]
    enumeration = _Enumeration(main.signature | modulo.signature, 2, lhss)
    for n in range(1, 6):
        listed = list(enumeration.stream(n))
        for t, _, state in listed:
            normal = reference.is_normal_form(main, t) and reference.is_normal_form(
                modulo, t
            )
            assert normal if state >= 0 else not (exact and normal), t
        cut = [t for t, _, _ in enumeration.stream(n, cut=True)]
        assert cut == [t for t, _, state in listed if state < 0]


def test_enumeration_has_no_renaming_duplicates():
    terms = enumerate_terms({A0, O2}, 5)
    assert len(terms) == len(set(terms))
    assert all(canonical(t) == t for t in terms)


def test_dc_table_for_curried_addition():
    trs = samples.system("addition")
    table = dc_table(trs, 7, FULL, 100_000)
    assert table.incomplete_at is None
    assert {n: row.value for n, row in table.rows.items()} == {
        1: 0,
        2: 0,
        3: 0,
        4: 0,
        5: 1,
        6: 1,
        7: 2,
    }
    for n, row in table.rows.items():
        assert row.witness is not None
        assert size(row.witness) <= n
        check = derivation_height(trs, row.witness, FULL, 100_000)
        assert check == Finished(row.value)


def test_dc_values_never_decrease_with_size():
    trs = transform(samples.system("addition")).combined
    table = dc_table(trs, 6, INNER, 100_000)
    assert table.incomplete_at is None
    values = [table.rows[n].value for n in range(1, 7)]
    assert values == sorted(values)


def test_a_table_never_builds_a_start_term_it_proves_normal():
    # addition under symbol names no other test uses, so that no term over
    # them is interned before the table runs
    trs = trs_of(
        "(VAR x y) (RULES plus9 @ x @ zero9 -> x"
        "  plus9 @ x @ (succ9 @ y) -> succ9 @ (plus9 @ x @ y))"
    )
    table = dc_table(trs, 9, FULL, 10_000)
    assert table.rows[9].value == 3

    def built(head, arg):
        # parsing builds the two arguments of head @ arg, never the term
        arities = {s.name: s.arity for s in trs.signature}
        args = tuple(parse_term(a, {"x"}, arities) for a in (head, arg))
        return (APP, args) in Fun._intern

    assert not built("succ9", "succ9 @ (succ9 @ (succ9 @ x))")
    assert built("plus9 @ x", "succ9 @ (succ9 @ zero9)")


def test_dc_keeps_the_first_witness_on_ties():
    trs = trs_of("(RULES a -> b  c -> d)")
    table = dc_table(trs, 1, FULL, 100)
    assert table.rows[1] == DcRow(1, Fun(A0))


def test_dc_table_stops_at_a_loop():
    trs = samples.system("head_loop")
    table = dc_table(trs, 4, FULL, 10_000)
    assert table.incomplete_at == 3
    reference.assert_loop_replays(trs, table.loop, FULL)
    assert sorted(table.rows) == [1, 2]
    assert table.rows[1].value == 1
    assert table.fuel_exhausted_on is None


def test_dc_table_stops_when_fuel_runs_out():
    trs = trs_of("(RULES c -> s @ c)")
    table = dc_table(trs, 2, FULL, 10)
    assert table.incomplete_at == 1
    assert table.loop is None
    assert table.fuel_exhausted_on == Fun(Symbol("c", 0))
    assert table.rows == {}


def test_relative_table_matches_fresh_searches():
    main = trs_of("(VAR x) (RULES f @ x -> x)")
    modulo = trs_of("(RULES a -> f @ a)")
    table = dc_relative_table(main, modulo, 4, 3_000)
    assert isinstance(table, ComplexityTable)
    signature = main.signature | modulo.signature
    for n, row in table.rows.items():
        fresh = RelativeHeightSearch(main, modulo, 3_000)
        best = 0
        for t in enumerate_terms(signature, n):
            out = fresh.height(t, 3_000)
            assert isinstance(out, Finished)
            best = max(best, out.value)
        assert best == row.value


def test_relative_table_with_empty_main_is_all_zeros():
    main = trs_of("(RULES )")
    modulo = trs_of("(RULES f -> g)")
    table = dc_relative_table(main, modulo, 3, 1000)
    assert table.incomplete_at is None
    assert all(row.value == 0 for row in table.rows.values())


def two_variable_table(search, kind, fuel, signature, max_size):
    """Reference dc table over every term with at most two variables, which
    dc_table must equal on left-linear systems."""
    table = ComplexityTable(strategy=kind)
    best, witness = 0, None
    for n in range(1, max_size + 1):
        for t in terms_of_size(signature, n, 2):
            outcome = search.height(t, fuel)
            if isinstance(outcome, Finished):
                if witness is None or outcome.value > best:
                    best, witness = outcome.value, t
            else:
                table.incomplete_at = n
                if isinstance(outcome, LoopDetected):
                    table.loop = outcome
                else:
                    table.fuel_exhausted_on = t
                return table
        table.rows[n] = DcRow(best, witness)
    return table


def sample_systems():
    """Every sample system under its name and every other trs/ file under
    its file name."""
    found = {name: samples.system(name) for name in samples.FILES}
    for path in sorted(TRS.glob("*.trs")):
        trs = parse_trs(path.read_text(encoding="utf-8")).trs
        if trs not in found.values():
            found[path.name] = trs
    return found


SAMPLES = sample_systems()


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_one_variable_tables_equal_two_variable_tables(name):
    trs = SAMPLES[name]
    assert is_left_linear(trs)
    for kind in StrategyKind:
        search = HeightSearch(trs, kind)
        want = two_variable_table(search, kind, 5_000, trs.signature, 6)
        assert want.fuel_exhausted_on is None
        assert dc_table(trs, 6, kind, 5_000) == want
        if name == "head_loop" and kind is FULL:
            reference.assert_loop_replays(trs, want.loop, kind)

    try:
        res = transform(trs)
    except TransformError:
        return
    main, modulo = res.uncurried_eta, res.u_rules
    assert is_left_linear(main) and is_left_linear(modulo)
    want = two_variable_table(
        RelativeHeightSearch(main, modulo, 5_000), FULL, 5_000,
        main.signature | modulo.signature, 5,
    )
    assert dc_relative_table(main, modulo, 5, 5_000) == want


def test_tables_of_non_left_linear_systems_enumerate_two_variables():
    trs = trs_of("(VAR x y) (RULES f(x, x) -> a  g(f(x, y)) -> g(f(x, y)))")
    assert not is_left_linear(trs)
    arities = {"f": 2, "g": 1, "a": 0}

    def term(s):
        return parse_term(s, {"x", "y"}, arities)

    inner = dc_table(trs, 6, INNER, 1_000)
    assert inner.incomplete_at == 4
    assert inner.loop.start == term("g(f(x, y))")
    one_var = dc_table(trs, 6, INNER, 1_000, max_vars=1)
    assert one_var.loop.start == term("g(f(x, a))")
    full = dc_table(trs, 6, FULL, 1_000)
    assert full.loop.start == term("g(f(x, x))")
    for table in (inner, one_var, full):
        reference.assert_loop_replays(trs, table.loop, table.strategy)


#: Budget of each reference height and fuel of the tables below: a start
#: term the reference finishes within it cannot exhaust the table's fuel.
_BUDGET = 1000
_MAX_SIZE = 4


def _assert_table_equals_the_reference(table_to, want):
    """table_to(n) is the table up to size n.  Where the reference ran out
    of budget the table is built only up to the size before, so that it
    never explores the ever-growing terms that stopped the reference."""
    rows, stop = want
    if stop is not None and stop[1] == "budget":
        if stop[0] == 1:
            return None
        table = table_to(stop[0] - 1)
    else:
        table = table_to(_MAX_SIZE)
    assert {n: (row.value, row.witness) for n, row in table.rows.items()} == rows
    if stop is None or stop[1] == "budget":
        assert table.incomplete_at is None
    else:
        assert table.incomplete_at == stop[0]
        assert table.loop is not None
    return table


@settings(max_examples=60, deadline=None)
@given(st.one_of(strategies.first_order_systems(), strategies.applicative_systems()))
def test_dc_tables_equal_the_reference_on_random_systems(trs):
    for kind in StrategyKind:

        def height_of(t):
            return reference.height(
                lambda s: reference.successors(trs, s, kind), t,
                reference.Budget(_BUDGET),
            )

        table = _assert_table_equals_the_reference(
            lambda n: dc_table(trs, n, kind, _BUDGET),
            reference.dc_rows(trs.signature, _MAX_SIZE, height_of),
        )
        if table is not None and table.loop is not None:
            reference.assert_loop_replays(trs, table.loop, kind)


@settings(max_examples=100, deadline=None)
@given(strategies.system_pairs())
def test_relative_tables_equal_the_reference_on_random_pairs(pair):
    main, modulo = pair

    def height_of(t):
        budget = reference.Budget(_BUDGET)
        return reference.height(
            lambda s: reference.relative_successors(main, modulo, s, budget), t,
            budget,
        )

    table = _assert_table_equals_the_reference(
        lambda n: dc_relative_table(main, modulo, n, _BUDGET),
        reference.dc_rows(main.signature | modulo.signature, _MAX_SIZE, height_of),
    )
    if table is not None and table.loop is not None:
        combined = RelativeHeightSearch(main, modulo, _BUDGET).combined
        reference.assert_loop_replays(combined, table.loop, FULL)
        assert any(step.rule_index < len(main.rules) for step in table.loop.trace)
