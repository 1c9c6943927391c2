import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from atrs import cli
from atrs.cli import main
from atrs.complexity import dc_relative_table
from atrs.oracles import Failure, VerificationReport
from atrs.parsing import parse_tmi, parse_trs
from atrs.terms import Fun, Symbol, Var

ROOT = Path(__file__).resolve().parent.parent
TRS = ROOT / "trs"

ADD = str(TRS / "add.trs")
LOOP = str(TRS / "loop.trs")
SWITCH = str(TRS / "switch.trs")
ADD_UNCURRIED = str(TRS / "add_uncurried.trs")
ADD_TMI = str(TRS / "add.tmi")

def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_uncurry_emits_the_combined_system(capsys):
    code, out, err = run(capsys, "uncurry", ADD)
    assert code == 0
    assert (TRS / "add_uncurried.trs").read_text(encoding="utf-8") == out
    assert "add#2(x, s#1(y)) -> s#1(add#2(x, y))" in out
    assert "warning" in err


def test_uncurry_show_arities(capsys):
    code, out, _ = run(capsys, "uncurry", ADD, "--show-arities")
    assert code == 0
    assert out.splitlines()[:3] == ["aa(add) = 2", "aa(0) = 0", "aa(s) = 1"]


def test_uncurry_emit_all_sections(capsys):
    code, out, _ = run(capsys, "uncurry", ADD, "--emit", "all")
    assert code == 0
    headers = [l for l in out.splitlines() if l.startswith("== ")]
    assert headers == [
        "== input ==",
        "== eta ==",
        "== u ==",
        "== uncurried ==",
        "== eta-uncurried ==",
        "== combined ==",
    ]


def test_uncurry_single_sections_are_parseable(capsys):
    for emit in ("input", "eta", "u", "uncurried", "eta-uncurried"):
        code, out, _ = run(capsys, "uncurry", ADD, "--emit", emit)
        assert code == 0
        parse_trs(out)


def test_uncurry_json(capsys):
    code, out, _ = run(capsys, "uncurry", ADD, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "uncurry"
    assert report["status"] == "ok"
    assert report["data"]["arities"] == {"add": 2, "s": 1, "0": 0}
    assert len(report["data"]["systems"]["combined"]) == 5


def test_uncurry_finds_the_application_symbol(capsys, tmp_path):
    f = tmp_path / "o.trs"
    f.write_text("(VAR x) (RULES o(id, x) -> x)\n", encoding="utf-8")
    code, out, _ = run(capsys, "uncurry", str(f))
    assert code == 0
    assert "id#1(x) -> x" in out
    code, _, err = run(capsys, "uncurry", str(f), "--app", "o")
    assert code == 3
    assert "--app" in err


def test_uncurry_rejects_applied_variables_on_the_left(capsys, tmp_path):
    f = tmp_path / "headvar.trs"
    f.write_text("(VAR x y) (RULES x @ y -> y)\n", encoding="utf-8")
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "uncurry", str(f), *extra)
        assert code == 3
        assert out == ""
        assert err == "error: left-hand sides must not apply variables\n"


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run(capsys, "uncurry", str(TRS / "nope.trs"))
    assert code == 3
    assert "error:" in err


def test_rewrite_successors_and_normal_form(capsys):
    code, out, _ = run(capsys, "rewrite", ADD, "--term", "add @ 0 @ 0")
    assert code == 0
    assert out == "0\n"
    code, out, _ = run(capsys, "rewrite", ADD, "--term", "s @ 0")
    assert code == 0
    assert out == "normal form\n"


def test_rewrite_normalize(capsys):
    code, out, _ = run(
        capsys, "rewrite", ADD, "--normalize",
        "--term", "add @ (s @ 0) @ (s @ 0)",
    )
    assert code == 0
    assert out == "s @ (s @ 0)\n"


def test_rewrite_normalize_reports_loops(capsys):
    code, out, _ = run(capsys, "rewrite", LOOP, "--normalize", "--term", "f @ a")
    assert code == 1
    assert out.splitlines()[0] == "loop detected"
    assert "rule 1 at root" in out


def test_rewrite_normalize_fuel(capsys, tmp_path):
    f = tmp_path / "grow.trs"
    f.write_text("(RULES c -> s @ c)\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "rewrite", str(f), "--normalize", "--term", "c", "--fuel", "5"
    )
    assert code == 2
    assert "fuel exhausted" in out


def test_rewrite_step_trace(capsys):
    code, out, _ = run(
        capsys, "rewrite", ADD, "--steps", "2",
        "--term", "add @ (s @ 0) @ (s @ 0)",
    )
    assert code == 0
    assert out.splitlines() == [
        "add @ (s @ 0) @ (s @ 0)",
        "-> s @ (add @ (s @ 0) @ 0)",
        "-> s @ (s @ 0)",
    ]


def test_dh_values_and_exit_codes(capsys, tmp_path):
    code, out, _ = run(
        capsys, "dh", ADD, "--term", "add @ (s @ 0) @ (s @ 0)"
    )
    assert code == 0
    assert out == "dh = 2\n"

    code, out, _ = run(capsys, "dh", LOOP, "--term", "f @ a")
    assert code == 1
    assert out.splitlines()[0] == "loop detected, height undefined"

    f = tmp_path / "grow.trs"
    f.write_text("(RULES c -> s @ c)\n", encoding="utf-8")
    code, out, _ = run(capsys, "dh", str(f), "--term", "c", "--fuel", "10")
    assert code == 2
    assert "fuel exhausted" in out


def test_dh_json_loop_report(capsys):
    code, out, _ = run(capsys, "dh", LOOP, "--term", "f @ a", "--json")
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "loop"
    witness = report["data"]["witness"]
    assert witness["start"] == "f @ a"
    assert witness["trace"][-1]["result"] == "f @ a"


def test_loop_witness_reports_the_last_step_sharing_a_result(capsys, tmp_path):
    # rule 1 at the root and rule 2 at position 1 both rewrite f @ a to itself
    f = tmp_path / "dup.trs"
    f.write_text("(VAR x) (RULES f @ x -> f @ x  f -> f)\n", encoding="utf-8")
    argv = ("dh", str(f), "--term", "f @ a", "--strategy", "full")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out.splitlines()[1:] == ["start: f @ a", "  -> f @ a  (rule 2 at 1)"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1
    assert json.loads(out)["data"]["witness"] == {
        "start": "f @ a",
        "trace": [{"position": [1], "rule": 2, "result": "f @ a"}],
    }


def test_rewrite_rejects_negative_steps(capsys):
    code, out, err = run(capsys, "rewrite", ADD, "--term", "add @ 0 @ 0",
                         "--steps", "-2")
    assert (code, out) == (3, "")
    assert "--steps must not be negative" in err
    code, out, _ = run(capsys, "rewrite", ADD, "--term", "add @ 0 @ 0",
                       "--steps", "0")
    assert (code, out) == (0, "add @ 0 @ 0\n")


def test_dc_table(capsys):
    code, out, _ = run(capsys, "dc", ADD, "--max-size", "5")
    assert code == 0
    assert out.splitlines() == [
        "strategy: full",
        "dc(1) = 0   witness: x",
        "dc(2) = 0   witness: x",
        "dc(3) = 0   witness: x",
        "dc(4) = 0   witness: x",
        "dc(5) = 1   witness: add @ x @ 0",
    ]


def test_dc_loop_abort(capsys):
    code, out, _ = run(capsys, "dc", LOOP, "--max-size", "4")
    assert code == 1
    assert "loop at size 3, dc undefined" in out
    assert "dc(2) = 1" in out


def test_dc_rejects_negative_max_vars(capsys):
    for size in ("3", "0"):
        code, out, err = run(capsys, "dc", ADD, "--max-size", size,
                             "--max-vars", "-1")
        assert (code, out) == (3, "")
        assert "max_vars must not be negative" in err
    code, out, _ = run(capsys, "dc", ADD, "--max-size", "3", "--max-vars", "0")
    assert code == 0
    assert "dc(3) = 0   witness: 0" in out


def test_searches_reject_fuel_zero_before_enumerating(capsys):
    commands = (
        ("dc", ADD),
        ("dc", ADD, "--relative-to", ADD),
        ("verify", ADD, "--property", "innermost-loop"),
    )
    for command in commands:
        for size in ("0", "3"):
            code, out, err = run(capsys, *command, "--max-size", size,
                                 "--fuel", "0")
            assert (code, out) == (3, "")
            assert "fuel must be positive" in err


def test_dc_with_no_size_to_table_is_vacuous(capsys):
    for size in ("0", "-2"):
        for extra in ((), ("--relative-to", ADD)):
            code, out, _ = run(capsys, "dc", ADD, "--max-size", size, *extra)
            assert (code, out) == (2, "strategy: full\nvacuous: no sizes tabled\n")
            code, out, _ = run(capsys, "dc", ADD, "--max-size", size, *extra,
                               "--json")
            assert code == 2
            report = json.loads(out)
            assert (report["status"], report["data"]["rows"]) == ("vacuous", [])


def test_dc_relative(capsys, tmp_path):
    modulo = tmp_path / "modulo.trs"
    modulo.write_text("(RULES f -> g)\n", encoding="utf-8")
    main_file = tmp_path / "main.trs"
    main_file.write_text("(RULES a -> b)\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "dc", str(main_file), "--max-size", "3",
        "--relative-to", str(modulo),
    )
    assert code == 0
    table = dc_relative_table(
        parse_trs("(RULES a -> b)").trs, parse_trs("(RULES f -> g)").trs, 3, 10000
    )
    for n, row in table.rows.items():
        assert f"dc({n}) = {row.value}" in out


def test_dc_relative_requires_full_strategy(capsys):
    code, _, err = run(
        capsys, "dc", ADD, "--max-size", "3",
        "--relative-to", ADD, "--strategy", "innermost",
    )
    assert code == 3
    assert "relative tables" in err


def test_check_tmi_accepts_the_addition_certificate(capsys):
    code, out, err = run(capsys, "check-tmi", ADD_UNCURRIED, "--tmi", ADD_TMI)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "monotone: yes"
    assert lines[1] == "triangular: yes"
    assert "certificate: UpperBound(2)" in lines
    assert "dc(n) in O(n^2)" in lines


def test_check_tmi_json(capsys):
    code, out, _ = run(
        capsys, "check-tmi", ADD_UNCURRIED, "--tmi", ADD_TMI, "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["data"]["certificate"] == {"kind": "upper-bound", "degree": 2}


def test_check_tmi_rejects_a_non_decreasing_interpretation(capsys, tmp_path):
    trs = tmp_path / "ab.trs"
    trs.write_text("(RULES a -> b)\n", encoding="utf-8")
    tmi = tmp_path / "flat.tmi"
    tmi.write_text("a/0 : [] + [0]\nb/0 : [] + [0]\n", encoding="utf-8")
    code, out, _ = run(capsys, "check-tmi", str(trs), "--tmi", str(tmi))
    assert code == 1
    assert "check failed: rule 1 not strictly oriented" in out
    assert "rule 1: a -> b" in out


def test_check_tmi_with_missing_symbols_is_an_input_error(capsys, tmp_path):
    tmi = tmp_path / "partial.tmi"
    tmi.write_text("add/0 : [] + [0; 0]\n", encoding="utf-8")
    code, _, err = run(capsys, "check-tmi", ADD_UNCURRIED, "--tmi", str(tmi))
    assert code == 3
    assert "no interpretation for" in err


def test_search_tmi_finds_a_certificate(capsys):
    code, out, _ = run(
        capsys, "search-tmi", ADD_UNCURRIED,
        "--dim", "2", "--max-coeff", "2", "--budget", "50000",
    )
    assert code == 0
    interp = parse_tmi(out)
    assert interp.dim == 2


def test_search_tmi_refutes_a_self_loop(capsys, tmp_path):
    f = tmp_path / "cc.trs"
    f.write_text("(RULES c -> c)\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "search-tmi", str(f),
        "--dim", "1", "--max-coeff", "2", "--budget", "100000",
    )
    assert code == 1
    assert "no certificate" in out


def test_search_tmi_budget_exhaustion(capsys):
    code, out, _ = run(
        capsys, "search-tmi", ADD_UNCURRIED,
        "--dim", "2", "--max-coeff", "2", "--budget", "50",
    )
    assert code == 2
    assert "budget" in out


def test_search_tmi_bad_parameters(capsys):
    code, _, err = run(
        capsys, "search-tmi", ADD_UNCURRIED,
        "--dim", "0", "--max-coeff", "2", "--budget", "100",
    )
    assert code == 3
    assert "dimension" in err


def test_verify_simulation_holds(capsys):
    code, out, _ = run(
        capsys, "verify", ADD, "--property", "uncurried-step", "--max-size", "5"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "property: uncurried-step"
    assert lines[-1] == "holds"


def test_verify_vacuous_report(capsys, tmp_path):
    f = tmp_path / "empty.trs"
    f.write_text("(RULES )\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "verify", str(f), "--property", "uncurried-step"
    )
    assert code == 2
    assert "vacuous" in out


def test_verify_innermost_loop_with_no_start_terms_is_vacuous(capsys, tmp_path):
    empty = tmp_path / "empty.trs"
    empty.write_text("(RULES )\n", encoding="utf-8")
    for argv in ((ADD, "--max-size", "0"), (str(empty), "--max-vars", "0")):
        code, out, _ = run(capsys, "verify", *argv, "--property", "innermost-loop")
        assert code == 2
        assert out == "vacuous: no start terms searched\n"
        code, out, _ = run(
            capsys, "verify", *argv, "--property", "innermost-loop", "--json"
        )
        assert code == 2
        assert json.loads(out)["status"] == "vacuous"


def test_verify_innermost_loop_pair(capsys, tmp_path):
    code, out, _ = run(
        capsys, "verify", LOOP, "--property", "innermost-loop", "--max-size", "4"
    )
    assert code == 0
    assert "no loop found" in out

    code, out, _ = run(capsys, "uncurry", LOOP)
    assert code == 0
    uncurried = tmp_path / "loop_u.trs"
    uncurried.write_text(out, encoding="utf-8")
    code, out, _ = run(
        capsys, "verify", str(uncurried),
        "--property", "innermost-loop", "--max-size", "4",
    )
    assert code == 1
    assert out.splitlines()[0] == "innermost loop found"
    assert "f#1" in out


def test_verify_innermost_loop_out_of_fuel_is_undecided(capsys, tmp_path):
    f = tmp_path / "grow.trs"
    f.write_text("(VAR x) (RULES f @ x -> f @ (s @ x))\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "verify", str(f), "--property", "innermost-loop",
        "--max-size", "3", "--fuel", "50",
    )
    assert code == 2
    assert out == "undecided: some start terms ran out of fuel\n"
    code, out, _ = run(
        capsys, "verify", str(f), "--property", "innermost-loop",
        "--max-size", "3", "--fuel", "50", "--json",
    )
    assert code == 2
    assert json.loads(out)["status"] == "undecided"
    code, _, _ = run(
        capsys, "dc", str(f), "--strategy", "innermost",
        "--max-size", "3", "--fuel", "50",
    )
    assert code == 2


def test_verify_other_properties_hold_on_samples(capsys):
    for prop in ("ri-sim", "nf-preservation", "subterm-commutation"):
        code, out, _ = run(
            capsys, "verify", SWITCH, "--property", prop, "--max-size", "4"
        )
        assert code == 0, (prop, out)
        assert out.splitlines()[-1] == "holds"


_FUEL_CASES = [
    ("nf-preservation", ADD, 6, 1, 79, 90),
    ("subterm-commutation", ADD, 6, 1, 238, 94),
    ("ri-sim", ADD, 6, 1, 12, 8),
    ("uncurried-step", SWITCH, 5, 2, 587, 237),
]


@pytest.mark.parametrize(
    "prop, file, size, fuel, checked, exhausted",
    _FUEL_CASES,
    ids=[f"{case[0]}-{case[4]}-{case[5]}" for case in _FUEL_CASES],
)
def test_verify_reports_closure_fuel_as_undecided(
    capsys, prop, file, size, fuel, checked, exhausted
):
    code, out, _ = run(
        capsys, "verify", file, "--property", prop,
        "--max-size", str(size), "--fuel", str(fuel), "--json",
    )
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "undecided"
    assert report["data"]["instances_checked"] == checked
    assert report["data"]["exhausted"] == exhausted


def _one_failure(trs, max_size, fuel):
    x = Var("x")
    return VerificationReport(
        "uncurried-step", 3, (Failure((x, Fun(Symbol("a", 0))), "x -> a", "none"),)
    )


def test_verify_renders_a_refuted_report(capsys, monkeypatch):
    monkeypatch.setitem(cli._ORACLES, "uncurried-step", _one_failure)
    code, out, _ = run(capsys, "verify", ADD, "--property", "uncurried-step")
    assert code == 1
    assert out.splitlines() == [
        "property: uncurried-step",
        "instances checked: 3",
        "FAIL: expected x -> a; observed none",
        "  instance: x | a",
        "refuted",
    ]
    code, out, _ = run(
        capsys, "verify", ADD, "--property", "uncurried-step", "--json"
    )
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "refuted"
    assert report["data"]["failures"] == [
        {"instance": ["x", "a"], "expected": "x -> a", "observed": "none"}
    ]


@pytest.mark.parametrize(
    "prop", ["uncurried-step", "ri-sim", "nf-preservation", "subterm-commutation"]
)
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_verify_rejects_left_head_variables(capsys, tmp_path, prop, json_flag):
    f = tmp_path / "hv.trs"
    f.write_text("(VAR x y) (RULES x @ y -> y)\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", str(f), "--property", prop, *json_flag)
    assert code == 3
    assert out == ""
    assert err == "error: left-hand sides must not apply variables\n"


@pytest.mark.parametrize(
    "prop", ["uncurried-step", "ri-sim", "nf-preservation", "subterm-commutation"]
)
def test_verify_rejects_fuel_below_one(capsys, prop):
    code, out, err = run(capsys, "verify", ADD, "--property", prop, "--fuel", "0")
    assert code == 3
    assert out == ""
    assert "fuel must be positive" in err


def test_usage_errors_exit_three(capsys):
    assert run(capsys, "dc", ADD)[0] == 3
    assert run(capsys, "rewrite", ADD)[0] == 3
    assert run(capsys, "nonsense")[0] == 3


def test_usage_errors_exit_three_after_a_successful_run(capsys):
    # the parser is built once and reused, so it must carry nothing over
    assert run(capsys, "dh", ADD, "--term", "add @ 0 @ 0")[0] == 0
    assert run(capsys, "dh", ADD)[0] == 3
    assert run(capsys, "rewrite", ADD, "--term", "0", "--steps", "1",
               "--normalize")[0] == 3


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "uncurry", "--help")[0] == 0


def test_parse_errors_exit_three(capsys, tmp_path):
    f = tmp_path / "broken.trs"
    f.write_text("(RULES a -> )\n", encoding="utf-8")
    code, _, err = run(capsys, "rewrite", str(f), "--term", "a")
    assert code == 3
    assert "line 1, column" in err


def test_parse_errors_name_the_file_at_fault(capsys, tmp_path):
    broken = tmp_path / "broken.trs"
    broken.write_text("(RULES a -> )\n", encoding="utf-8")
    code, _, err = run(
        capsys, "dc", ADD, "--max-size", "2", "--relative-to", str(broken)
    )
    assert code == 3
    assert err.endswith(
        f"error: {broken}: line 1, column 13: expected a term, found ')'\n"
    )
    bad = tmp_path / "bad.tmi"
    bad.write_text("add/2 : [ [1 1; 0 1] ] + [0; 0]\n", encoding="utf-8")
    code, _, err = run(capsys, "check-tmi", ADD, "--tmi", str(bad))
    assert code == 3
    assert err.endswith(f"error: {bad}: line 1, column 1: add/2 has 1 matrices\n")


def test_internal_errors_exit_four(capsys):
    # a term nested deeper than the recursion limit still breaks the
    # recursive parser (parsing.py term/primary); that is a failure of
    # atrs, not a refutation
    depth = 12_000
    term = "add @ " + "(s @ " * depth + "0" + ")" * depth + " @ (s @ 0)"
    code, out, err = run(capsys, "dh", ADD, "--strategy", "innermost", "--term", term)
    assert code == 4
    assert out == ""
    assert "internal error: RecursionError" in err


#: Runs every argv list in-process and prints (exit code, stdout, stderr)
#: as JSON.
_RUN_ALL = """
import contextlib, io, json, sys
from atrs.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    out.append([code, stdout.getvalue(), stderr.getvalue()])
print(json.dumps(out))
"""


def _determinism_corpus(loop_uncurried: str):
    files = sorted(str(f) for f in TRS.glob("*.trs"))
    runs = [["uncurry", f, "--emit", "combined"] for f in files]
    runs += [["dc", f, "--max-size", "5", "--strategy", s, *json_flag]
             for f in (ADD, str(TRS / "double.trs"), ADD_UNCURRIED, loop_uncurried)
             for s in ("full", "innermost") for json_flag in ((), ("--json",))]
    runs += [["dc", ADD_UNCURRIED, "--max-size", "5", "--relative-to", ADD]]
    runs += [["search-tmi", f, "--dim", "2", "--max-coeff", "1", "--budget",
              "100000", *json_flag]
             for f in (ADD_UNCURRIED, loop_uncurried) for json_flag in ((), ("--json",))]
    runs += [["verify", f, "--property", p, "--max-size", "4", "--json"]
             for f in (ADD, SWITCH, LOOP)
             for p in ("uncurried-step", "ri-sim", "nf-preservation",
                       "subterm-commutation")]
    runs += [["verify", f, "--property", "innermost-loop", "--max-size", "4"]
             for f in (LOOP, loop_uncurried)]
    runs += [["rewrite", ADD, "--steps", "3", "--strategy", s,
              "--term", "add @ (add @ (s @ 0) @ 0) @ (s @ (s @ 0))"]
             for s in ("full", "innermost", "ri")]
    return runs


def test_commands_in_one_process_print_what_separate_runs_print():
    runs = [["dc", ADD, "--max-size", "4", "--json"],
            ["verify", SWITCH, "--property", "ri-sim", "--max-size", "3"],
            ["dh", ADD, "--term", "add @ (s @ 0) @ 0", "--strategy", "innermost"],
            ["dc", ADD]]

    def run_all(argvs):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", _RUN_ALL, json.dumps(argvs)],
                              env=env, capture_output=True, text=True, timeout=120,
                              check=True)
        return json.loads(proc.stdout)

    separate = [result for argv in runs for result in run_all([argv])]
    assert run_all(runs) == separate
    assert [code for code, _, _ in separate] == [0, 0, 0, 3]


def test_output_does_not_depend_on_the_hash_seed(capsys, tmp_path):
    # hashing is by object identity, so set and dict orders follow object
    # addresses; no printed result may follow them
    loop_uncurried = tmp_path / "loop_u.trs"
    loop_uncurried.write_text(run(capsys, "uncurry", LOOP)[1], encoding="utf-8")
    runs = json.dumps(_determinism_corpus(str(loop_uncurried)))
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", _RUN_ALL, runs], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1]
    assert {code for code, _, _ in outputs[0]} == {0, 1, 2, 3}
