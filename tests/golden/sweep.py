"""A differential sweep: one grid of command lines, run by the code of the
working tree and by the code of a git revision, with every run whose exit
code, stdout or stderr differs printed.

    python tests/golden/sweep.py REV

REV is checked out into a temporary local git worktree, which is removed
afterwards.  Each tree runs the whole grid in one subprocess through
atrs.cli.main (as regen.run does), from the repo root, so both read the
input files of the working tree.  The grid covers trs/*.trs, their
`combined` emits (written once, by the working tree, into a temporary
directory), tests/golden/inputs/*.trs and one more non-left-linear system:

- `verify --property innermost-loop` at sizes 4-7, fuels 1, 2, 3, 10 and
  1000 and `--max-vars` 0-2;
- `dc` under each strategy and relative `dc`, at fuels 2, 3, 10 and 1000 and
  `--max-vars` 0-2;
- the four simulation oracles at fuels 1, 3 and 1000;
- `search-tmi` at dimensions 1-3, coefficients up to 1 and up to 2, and
  budgets 1, 50 and 20000;
- `check-tmi` of every .tmi under trs/ and tests/golden/inputs/ against
  every system: a system it covers runs the checker to its verdict, any
  other stops at the first symbol it lacks;
- for each trs/*.trs and tests/golden/inputs/*.trs, the fixed terms of
  TERMS under each strategy: `rewrite` plain, with `--steps 3` and with
  `--normalize` at fuels 1, 2 and 10, and `dh` at fuels 1, 2, 10 and 1000.

It takes some minutes.  Exit status 0 when no run differs, 1 otherwise.
"""

from __future__ import annotations

import difflib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: A terminating system whose left-hand side repeats a variable.
MINUS = "(VAR x y) (RULES m @ x @ x -> 0  m @ (s @ x) @ (s @ y) -> m @ x @ y)\n"

#: A few terms per sample and golden input: redexes, nested and open terms,
#: normal forms, and terms that loop or that the file's symbols reject.
TERMS = {
    "trs/add.trs": (
        "add @ (s @ 0) @ (s @ (s @ 0))", "add @ (add @ 0 @ (s @ 0)) @ (s @ x)",
        "s @ (add @ x @ 0)", "s(0)"),
    "trs/add_uncurried.trs": (
        "add#2(s#1(0), s#1(s#1(0)))", "add @ (s @ 0) @ (add @ 0 @ (s @ 0))",
        "add#1(x) @ (s @ y)"),
    "trs/double.trs": ("f @ (s @ (s @ 0))", "f @ (f @ (s @ 0))", "f @ x"),
    "trs/id.trs": ("f @ 0", "id @ (id @ (f @ x))", "id @ f @ (f @ 0)"),
    "trs/loop.trs": ("f @ g", "f @ (f @ x)", "f"),
    "trs/parallel.trs": ("f @ a", "f @ (f @ a)", "f"),
    "trs/switch.trs": ("f @ a", "g @ (f @ a)", "f @ (g @ a)"),
    "tests/golden/inputs/a_to_b.trs": ("a", "c(a, a)", "b"),
    "tests/golden/inputs/a_to_b_or_a.trs": ("a", "c(a, a)", "c(a, b)"),
    "tests/golden/inputs/applied_variable.trs": ("f @ (g @ a)", "x @ (y @ z)", "a"),
    "tests/golden/inputs/b_to_a.trs": ("b", "c(b, b)", "a"),
    "tests/golden/inputs/b_to_ca.trs": ("b", "c(b)", "d(b, b)"),
    "tests/golden/inputs/comment.trs": ("f @ (f @ a)", "f @ x", "f"),
    "tests/golden/inputs/constants_only.trs": ("a", "b"),
    "tests/golden/inputs/double_uncurried.trs": (
        "f#1(s#1(s#1(0)))", "f @ (s @ (s @ 0))", "f#1(f#1(s#1(x)))"),
    "tests/golden/inputs/dup.trs": ("d(d(a))", "d(p(a, a))", "d(x)"),
    "tests/golden/inputs/eq_loop.trs": (
        "eq @ a @ a", "h @ (eq @ a @ b)", "h @ (eq @ x @ x)"),
    "tests/golden/inputs/eta_name.trs": ("f @ a @ a", "f @ a @ b", "g @ (f @ x)"),
    "tests/golden/inputs/fgh_redex.trs": ("f(g(h(x)))", "g(f(g(h(x))))", "h(x)"),
    "tests/golden/inputs/fresh_clash.trs": ("f @ a", "f#1"),
    "tests/golden/inputs/id_uncurried.trs": ("f#1(0)", "id#2(f, 0)", "id @ (id @ 0)"),
    "tests/golden/inputs/loop_uncurried.trs": ("f#1(g)", "f @ g", "f"),
    "tests/golden/inputs/no_rules.trs": ("a", "f(x)"),
    "tests/golden/inputs/parallel_uncurried.trs": ("f#1(a)", "f @ (f @ a)", "g#1(f)"),
    "tests/golden/inputs/switch_uncurried.trs": ("g#1(f)", "g @ (f @ a)", "f"),
    "tests/golden/inputs/syntax_error.trs": ("f @ x",),
    "tests/golden/inputs/two_binaries.trs": (
        "f @ a @ b", "f @ (f @ a @ b) @ x", "pair(a, b)"),
    "tests/golden/inputs/unbound_rhs.trs": ("f @ x",),
    "tests/golden/inputs/unknown_section.trs": ("f @ x",),
    "tests/golden/inputs/unterminated_comment.trs": ("f @ x",),
    "tests/golden/inputs/var_after_rules.trs": ("f @ a",),
}

#: Runs the command lines read as JSON from stdin with the atrs on
#: PYTHONPATH and writes their regen.run entries as JSON to stdout.
WORKER = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import regen; "
    "json.dump([regen.run(line) for line in json.load(sys.stdin)], sys.stdout)"
)


def grid(emits: dict[str, str], extra: list[str]) -> list[str]:
    """The command lines of the sweep, over repo-relative files, the
    emitted file of each sample in emits, and the files in extra."""
    samples = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "trs").glob("*.trs"))
    inputs = sorted(
        str(p.relative_to(ROOT)) for p in (HERE / "inputs").glob("*.trs"))
    systems = samples + list(emits.values()) + inputs + extra
    q = shlex.quote
    lines = [
        f"verify {q(f)} --property innermost-loop --max-size {n} --fuel {fuel}"
        f" --max-vars {v}"
        for f in systems for n in (4, 5, 6, 7) for fuel in (1, 2, 3, 10, 1000)
        for v in (0, 1, 2)
    ]
    lines += [
        f"dc {q(f)} --max-size 6 --strategy {s} --fuel {fuel} --max-vars {v}"
        for f in systems for s in ("full", "innermost", "ri")
        for fuel in (2, 3, 10, 1000) for v in (0, 1, 2)
    ]
    # each sample modulo its emit, and the other way round
    pairs = [p for f, e in emits.items() for p in ((e, f), (f, e))]
    pairs += [
        ("trs/add_uncurried.trs", "trs/add.trs"),
        ("tests/golden/inputs/a_to_b.trs", "tests/golden/inputs/b_to_a.trs"),
        ("tests/golden/inputs/a_to_b_or_a.trs", "tests/golden/inputs/b_to_ca.trs"),
    ]
    lines += [
        f"dc {q(main)} --max-size 5 --relative-to {q(modulo)} --fuel {fuel}"
        f" --max-vars {v}"
        for main, modulo in pairs for fuel in (2, 3, 10, 1000) for v in (0, 1, 2)
    ]
    lines += [
        f"verify {q(f)} --property {p} --max-size 4 --fuel {fuel}"
        for f in systems
        for p in ("uncurried-step", "ri-sim", "nf-preservation", "subterm-commutation")
        for fuel in (1, 3, 1000)
    ]
    lines += [
        f"search-tmi {q(f)} --dim {d} --max-coeff {c} --budget {b}"
        for f in systems for d in (1, 2, 3) for c in (1, 2) for b in (1, 50, 20000)
    ]
    tmis = sorted(
        str(p.relative_to(ROOT))
        for p in [*(ROOT / "trs").glob("*.tmi"), *(HERE / "inputs").glob("*.tmi")])
    lines += [f"check-tmi {q(f)} --tmi {q(t)}" for t in tmis for f in systems]
    modes = [("rewrite", ""), ("rewrite", " --steps 3")]
    modes += [("rewrite", f" --normalize --fuel {fuel}") for fuel in (1, 2, 10)]
    modes += [("dh", f" --fuel {fuel}") for fuel in (1, 2, 10, 1000)]
    lines += [
        f"{command} {q(f)} --term {q(t)} --strategy {s}{options}"
        for f in samples + inputs for t in TERMS[f]
        for s in ("full", "innermost", "ri") for command, options in modes
    ]
    return lines


def run_tree(src: Path, lines: list[str]) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    worker = subprocess.Popen(
        [sys.executable, "-c", WORKER, str(HERE)], cwd=ROOT, env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    worker.stdin.write(json.dumps(lines))
    worker.stdin.close()
    return worker


def results(worker: subprocess.Popen) -> list[str]:
    out = worker.stdout.read()
    if worker.wait() != 0:
        raise SystemExit("a sweep worker failed")
    return json.loads(out)


def main() -> int:
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} REV")
    rev = sys.argv[1]
    with tempfile.TemporaryDirectory(prefix="atrs-sweep-") as tmp:
        tree = Path(tmp, "tree")
        subprocess.run(["git", "worktree", "add", "--detach", "--quiet", str(tree), rev],
                       cwd=ROOT, check=True)
        try:
            emits = {}
            for f in sorted((ROOT / "trs").glob("*.trs")):
                done = subprocess.run(
                    [sys.executable, "-m", "atrs.cli", "uncurry", str(f),
                     "--emit", "combined"],
                    env=dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                             PYTHONDONTWRITEBYTECODE="1"),
                    capture_output=True, text=True)
                if done.returncode == 0:
                    emit = Path(tmp, f"{f.stem}.combined.trs")
                    emit.write_text(done.stdout, encoding="utf-8")
                    emits[str(f.relative_to(ROOT))] = str(emit)
            minus = Path(tmp, "minus.trs")
            minus.write_text(MINUS, encoding="utf-8")
            lines = grid(emits, [str(minus)])
            # the two trees run side by side, one process each
            workers = [run_tree(tree / "src", lines), run_tree(ROOT / "src", lines)]
            before, after = map(results, workers)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)],
                           cwd=ROOT, check=True)
    differing = 0
    for old, new in zip(before, after):
        # only a traceback names the tree it ran in
        old, new = old.replace(str(tree), "<tree>"), new.replace(str(ROOT), "<tree>")
        if old != new:
            differing += 1
            print("".join(difflib.unified_diff(
                old.splitlines(True), new.splitlines(True), rev, "working tree")))
    print(f"{len(lines)} runs, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
