"""The modules of the atrs package import each other without a cycle."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "atrs"


def import_graph() -> dict[str, set[str]]:
    """Module name -> modules it imports by ``from .x import`` or
    ``from . import x``, counting imports inside functions too."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        graph[path.stem] = {
            name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for name in ([node.module.split(".")[0]] if node.module
                         else [a.name for a in node.names])
        }
    return graph


def loaded_by(graph: dict[str, set[str]], module: str) -> set[str]:
    """Every package module that importing module loads, itself excluded."""
    seen, todo = set(), [module]
    while todo:
        for m in graph.get(todo.pop(), ()):
            if m not in seen:
                seen.add(m)
                todo.append(m)
    return seen - {module}


def test_the_package_import_graph_has_no_cycle():
    graph = import_graph()
    assert {"rewriting", "complexity"} <= graph["cli"]
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as e:
        pytest.fail(f"import cycle: {' -> '.join(e.args[1])}")


def test_the_library_holds_no_sample_copy_and_oracles_load_no_file_formats():
    graph = import_graph()
    assert "systems" not in graph
    assert not any("systems" in imports for imports in graph.values())
    assert not {"parsing", "tmi"} & loaded_by(graph, "oracles")
