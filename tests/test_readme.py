"""The README's library example runs and prints what its comments show."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_shows_its_results(monkeypatch):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
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
