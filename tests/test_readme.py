"""The README's library example runs and prints what its comments show,
and each of its command-line examples prints what follows it."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from atrs.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _cli_examples():
    """(command line after `atrs`, lines shown under it) for every `$ atrs`
    line in the code blocks of the "Command line" section."""
    section = README.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"```\n(.*?)```", section, re.S):
        for line in block.splitlines():
            if line.startswith("$ atrs "):
                examples.append((line.removeprefix("$ atrs "), []))
            elif examples:
                examples[-1][1].append(line)
    return examples


def _shows(want: list[str], got: list[str]) -> bool:
    """got matches want line by line, a `...` line in want matching any run
    of lines."""
    if not want:
        return not got
    if want[0] == "...":
        return any(_shows(want[1:], got[i:]) for i in range(len(got) + 1))
    return bool(got) and want[0] == got[0] and _shows(want[1:], got[1:])


EXAMPLES = _cli_examples()


@pytest.mark.parametrize("line, shown", EXAMPLES, ids=[line for line, _ in EXAMPLES])
def test_readme_command_line_example_prints_what_it_shows(
    monkeypatch, capsys, line, shown
):
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(line)) == 0
    out = capsys.readouterr().out.splitlines()
    assert not shown or _shows(shown, out), out


def test_readme_library_example_shows_its_results(monkeypatch):
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    lines = block.splitlines()
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"),
                     namespace)
        after = lines[stmt.end_lineno] if stmt.end_lineno < len(lines) else ""
        if after.startswith("# "):
            expected = after[2:]
            try:
                assert value == ast.literal_eval(expected)
            except ValueError:
                assert repr(value) == expected
            shown.append(expected)
    assert shown == [
        "{'add': 2, '0': 0, 's': 1}",
        "Finished(value=2)",
        "{1: 0, 2: 0, 3: 1, 4: 2, 5: 3, 6: 4, 7: 6, 8: 8}",
        "Certificate(kind='upper-bound', degree=2, note='dc(n) in O(n^2)')",
    ]
