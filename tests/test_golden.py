"""Every command of the golden CLI corpus prints what tests/golden/expected.txt
pins; tests/golden/regen.py describes the corpus and rewrites it.  The
differential sweep, tests/golden/sweep.py, has terms for every input."""

import difflib

from golden import regen, sweep


def test_every_golden_command_prints_its_pinned_output():
    lines = regen.commands()
    expected = regen.entries(regen.EXPECTED.read_text(encoding="utf-8"))
    assert [e.split("\n", 1)[0] for e in expected] == [f"$ atrs {l}" for l in lines]
    wrong = []
    for line, want in zip(lines, expected):
        got = regen.run(line)
        if got != want:
            wrong.append("".join(difflib.unified_diff(
                want.splitlines(True), got.splitlines(True), "expected", "got")))
    assert not wrong, f"{len(wrong)} of {len(lines)} entries differ:\n" + "\n".join(
        wrong[:5])


def test_the_sweep_has_terms_for_every_sample_and_golden_input():
    files = [*(sweep.ROOT / "trs").glob("*.trs"), *(sweep.HERE / "inputs").glob("*.trs")]
    missing = {str(f.relative_to(sweep.ROOT)) for f in files} - set(sweep.TERMS)
    assert not missing, f"add terms for {sorted(missing)} to sweep.TERMS"
