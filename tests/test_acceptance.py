"""End-to-end acceptance suite.

Eleven checks covering the whole pipeline: uncurrying reproduces the
reference rule sets, the strategy counterexamples behave as documented,
the matrix certificate for uncurried addition goes through, uncurried
doubling is exponential while its curried source stays linear, the
simulation oracles hold at desk scale, heights never drop under
uncurrying, relative complexity is bounded by doubling the size, and the
certificate search is sound.  Each test prints one PASS line with its
measured runtime.
"""

import time
from pathlib import Path

import samples
from samples import canonical_rules

from atrs.cli import main
from atrs.complexity import dc_relative_table, dc_table, enumerate_terms
from atrs.oracles import (
    verify_nf_preservation,
    verify_rightmost_simulation,
    verify_subterm_commutation,
    verify_uncurried_step,
)
from atrs.parsing import parse_trs
from atrs.rewriting import (
    Closure,
    Finished,
    StrategyKind,
    derivation_height,
    successors,
)
from atrs.terms import Fun, Symbol, Var
from atrs.tmi import SearchBudgetExhausted, check_tmi, search_tmi
from atrs.uncurrying import detect_atrs, transform

TRS = Path(__file__).resolve().parent.parent / "trs"
FULL = StrategyKind.FULL
INNER = StrategyKind.INNERMOST
RI = StrategyKind.RIGHTMOST_INNERMOST


def rules_of(text):
    return canonical_rules(parse_trs(text).trs)


def ok(label, started):
    print(f"PASS {label} ({time.monotonic() - started:.2f}s)")


def test_01_uncurrying_reproduces_the_reference_rule_sets():
    started = time.monotonic()
    res = transform(samples.system("id_apply"))
    assert res.context.aa == {"id": 2, "f": 1}
    assert canonical_rules(res.u_rules) == rules_of(
        "(VAR x y) (RULES id @ x -> id#1(x)  id#1(x) @ y -> id#2(x, y)"
        "  f @ x -> f#1(x))"
    )
    assert canonical_rules(res.uncurried) == rules_of(
        "(VAR x) (RULES id#1(x) -> x  f#1(x) -> id#2(f, x))"
    )
    assert canonical_rules(res.eta) == rules_of(
        "(VAR x y) (RULES id @ x -> x  f @ x -> id @ f @ x  id @ x @ y -> x @ y)"
    )
    assert canonical_rules(res.uncurried_eta) == rules_of(
        "(VAR x y) (RULES id#1(x) -> x  f#1(x) -> id#2(f, x)"
        "  id#2(x, y) -> x @ y)"
    )
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    ok("uncurrying the identity system emits the four expected rule sets,"
       " aa(id)=2 aa(f)=1", started)


def test_02_innermost_loop_appears_only_after_uncurrying(capsys, tmp_path):
    started = time.monotonic()
    code = main(["verify", str(TRS / "loop.trs"), "--property", "innermost-loop",
                 "--max-size", "5", "--fuel", "1000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "no loop found" in out

    assert main(["uncurry", str(TRS / "loop.trs")]) == 0
    uncurried = tmp_path / "loop_uncurried.trs"
    uncurried.write_text(capsys.readouterr().out, encoding="utf-8")
    code = main(["verify", str(uncurried), "--property", "innermost-loop",
                 "--max-size", "5", "--fuel", "1000"])
    out = capsys.readouterr().out
    assert code == 1
    assert "innermost loop found" in out
    assert "start: f#1(x)" in out
    assert "-> f#1(x)" in out
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    with capsys.disabled():
        ok("the head-loop system gains an innermost cycle f#1(x) -> f#1(x)"
           " under uncurrying (exit 1) and has none before (exit 0)", started)


def test_03_innermost_rewriting_contracts_the_argument_first():
    started = time.monotonic()
    trs = transform(samples.system("head_switch")).combined
    arities = {s.name: s.arity for s in trs.signature}
    g_a = Fun(Symbol("app", 2), (Fun(Symbol("g", 0)), Fun(Symbol("a", 0))))
    g_b = Fun(Symbol("app", 2), (Fun(Symbol("g", 0)), Fun(Symbol("b", 0))))
    g1_a = Fun(Symbol("g#1", 1), (Fun(Symbol("a", 0)),))
    assert arities["g#1"] == 1
    assert successors(trs, g_a, INNER) == [g_b]
    assert g1_a in successors(trs, g_a, FULL)
    assert g1_a not in successors(trs, g_a, INNER)
    ok("the only innermost step from g @ a contracts a; the root step to"
       " g#1(a) needs full rewriting", started)


def test_04_matrix_certificate_for_uncurried_addition(capsys):
    started = time.monotonic()
    code = main(["check-tmi", str(TRS / "add_uncurried.trs"),
                 "--tmi", str(TRS / "add.tmi")])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert "monotone: yes" in lines
    assert "triangular: yes" in lines
    assert sum(1 for l in lines if l.endswith("strictly oriented")) == 5
    assert "certificate: UpperBound(2)" in lines
    assert "dc(n) in O(n^2)" in lines
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    with capsys.disabled():
        ok("the dimension-2 interpretation strictly orients all five"
           " uncurried addition rules: dc(n) in O(n^2)", started)


def test_05_uncurried_doubling_is_exponential():
    started = time.monotonic()
    trs = transform(samples.system("doubling")).combined
    f1, s1 = Symbol("f#1", 1), Symbol("s#1", 1)
    for n in range(1, 9):
        t = Fun(s1, (Var("x"),))
        for _ in range(n):
            t = Fun(f1, (t,))
        outcome = derivation_height(trs, t, INNER, 200_000)
        assert outcome == Finished(2 ** (n + 1) - 2)
        assert outcome.value >= 2 ** n

    table = dc_table(trs, 9, INNER, 200_000)
    assert table.incomplete_at is None
    assert {n: row.value for n, row in table.rows.items()} == {
        n: 2 ** (n - 1) for n in range(1, 10)
    }
    for n in range(1, 7):
        assert table.rows[n + 3].value >= 2 ** n
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    ok("uncurried doubling: dh of the n-fold tower is 2^(n+1)-2 for"
       " n=1..8 and idc(n+3) >= 2^n", started)


def test_06_curried_doubling_keeps_linear_innermost_complexity():
    started = time.monotonic()
    table = dc_table(samples.system("doubling"), 9, INNER, 200_000)
    assert table.incomplete_at is None
    values = [table.rows[n].value for n in range(1, 10)]
    for a, b in zip(values, values[1:]):
        assert 0 <= b - a <= 3
    ok("curried doubling: idc grows by at most 3 per size step up to 9"
       f" (values {values})", started)


def test_07_simulation_oracles_hold_at_desk_scale():
    started = time.monotonic()
    counts = []
    for name in ("addition", "head_switch", "doubling"):
        trs = samples.system(name)
        reports = [
            verify_uncurried_step(trs, 6, 10_000),
            verify_rightmost_simulation(trs, 6, 10_000),
            verify_nf_preservation(trs, 6, 10_000),
            verify_subterm_commutation(detect_atrs(trs), 6, 10_000),
        ]
        for report in reports:
            assert report.failures == ()
            assert report.exhausted == ()
            assert report.instances_checked > 0
        counts.append([r.instances_checked for r in reports])
    assert counts == [
        [4, 12, 304, 896],
        [587, 512, 122, 2063],
        [70, 109, 54, 443],
    ]
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    ok("all four step-simulation oracles hold with zero failures on the"
       " three sample systems at size 6", started)


def test_08_weakened_innermost_simulation_fails():
    started = time.monotonic()
    trs = samples.system("parallel_redexes")
    res = transform(trs)
    app = res.context.app
    f, g, a, b = (Fun(Symbol(name, 0)) for name in "fgab")
    f_a, g_a, f1_a = Fun(app, (f, a)), Fun(app, (g, a)), Fun(Symbol("f#1", 1), (a,))
    u_reach = Closure(res.u_rules, FULL, 1_000_000)
    i_reach = Closure(res.combined, INNER, 1_000_000)
    # f a uncurries to f#1(a) and steps innermost to g a, but its one
    # rightmost-innermost step contracts a instead
    assert f1_a in u_reach.star(f_a)
    assert g_a in successors(trs, f_a, INNER)
    assert successors(trs, f_a, RI) == [Fun(app, (f, b))]
    # no innermost derivation from f#1(a) meets a reduct of g a, while one
    # meets a reduct of the rightmost-innermost target f b
    reached = i_reach.plus(f1_a)
    assert reached.isdisjoint(u_reach.star(g_a))
    assert not reached.isdisjoint(u_reach.star(Fun(app, (f, b))))
    ok("innermost simulation fails on the collapse system while both"
       " rightmost-innermost instances go through", started)


def test_09_heights_never_drop_under_uncurrying():
    started = time.monotonic()
    for name in ("addition", "head_switch"):
        source = samples.system(name)
        combined = transform(source).combined
        for t in enumerate_terms(source.signature, 6):
            plain = {}
            lifted = {}
            for kind in (FULL, INNER, RI):
                plain[kind] = derivation_height(source, t, kind, 200_000)
                lifted[kind] = derivation_height(combined, t, kind, 200_000)
                assert isinstance(plain[kind], Finished)
                assert isinstance(lifted[kind], Finished)
            assert plain[FULL].value <= lifted[FULL].value
            assert plain[INNER].value <= lifted[INNER].value
            assert plain[INNER] == plain[RI]
            assert lifted[INNER] == lifted[RI]
    ok("per term of size <= 6: heights never drop under uncurrying, and"
       " innermost equals rightmost-innermost", started)


def test_10_relative_complexity_bounded_by_doubling_the_size():
    started = time.monotonic()
    res = transform(samples.system("addition"))
    relative = dc_relative_table(res.uncurried_eta, res.u_rules, 6, 200_000)
    assert relative.incomplete_at is None
    rel_values = {n: row.value for n, row in relative.rows.items()}
    assert rel_values == {1: 0, 2: 0, 3: 1, 4: 2, 5: 3, 6: 4}

    plain = dc_table(samples.system("addition"), 12, FULL, 200_000)
    assert plain.incomplete_at is None
    for n in range(1, 7):
        assert rel_values[n] <= plain.rows[2 * n].value
    ok("uncurried-modulo-collapse complexity of addition at n stays below"
       " plain complexity at 2n for n <= 6", started)


def test_11_certificate_search_is_sound():
    started = time.monotonic()
    easy = parse_trs("(RULES a -> b)").trs
    found = search_tmi(easy, 1, 1, 10_000)
    assert found is not None
    assert check_tmi(found, easy).ok
    assert time.monotonic() - started < 1.0

    trs = transform(samples.system("addition")).combined
    try:
        interp = search_tmi(trs, 2, 1, 10_000_000)
    except SearchBudgetExhausted:
        outcome = "budget exhausted (acceptable)"
    else:
        assert interp is not None
        verdict = check_tmi(interp, trs)
        assert verdict.ok
        assert verdict.certificate.degree == 2
        outcome = "certificate found and checked: O(n^2)"
    ok(f"certificate search is sound; uncurried addition: {outcome}", started)
