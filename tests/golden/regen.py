"""The golden CLI corpus: every command in commands.txt with its expected
exit code, stdout and stderr in expected.txt.

Each line of commands.txt is one command line after `atrs`, split as a
shell would split it; lines starting with `#` are comments.  A line
starting with `exit-only:` pins only the exit code: argparse words its own
usage errors, and its wording may differ between Python versions.
Commands run in one process through atrs.cli.main, from the repo root, so
their paths and outputs are repo-relative.

    python tests/golden/regen.py

rewrites expected.txt from the code in src/.  tests/test_golden.py
compares against it; a changed entry is a behaviour change.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shlex
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
COMMANDS = HERE / "commands.txt"
EXPECTED = HERE / "expected.txt"
EXIT_ONLY = "exit-only:"


def commands() -> list[str]:
    """The command lines of commands.txt, comments dropped."""
    lines = COMMANDS.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line and not line.startswith("#")]


def run(line: str) -> str:
    """Run one command line and render its result as an expected.txt entry."""
    from atrs.cli import main

    exit_only = line.startswith(EXIT_ONLY)
    argv = shlex.split(line.removeprefix(EXIT_ONLY))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    entry = f"$ atrs {line}\nexit {code}\n"
    if exit_only:
        return entry
    return entry + f"-- stdout\n{out.getvalue()}-- stderr\n{err.getvalue()}"


def entries(text: str) -> list[str]:
    """The entries of an expected.txt text, in order."""
    return re.split(r"(?m)^(?=\$ atrs )", text)[1:]


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    text = "".join(run(line) for line in commands())
    EXPECTED.write_text(text, encoding="utf-8")
    print(f"wrote {len(commands())} entries to {EXPECTED.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
