"""The modules of the atrs package import each other without a cycle."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "atrs"


def import_graph() -> dict[str, set[str]]:
    """Module name -> modules it imports by ``from .x import``, counting
    imports inside functions too."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        graph[path.stem] = {
            node.module.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        }
    return graph


def test_the_package_import_graph_has_no_cycle():
    graph = import_graph()
    assert {"rewriting", "complexity"} <= graph["cli"]
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as e:
        pytest.fail(f"import cycle: {' -> '.join(e.args[1])}")
