"""The library's modules import each other without a cycle."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import regsched

PACKAGE = Path(regsched.__file__).parent


def sibling_imports(path: Path) -> set[str]:
    """The package modules ``path`` imports with ``from .x import ...`` or ``from . import x``."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_module_graph_has_no_cycle():
    graph = {
        path.stem: sibling_imports(path)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }
    # The parse sees real edges: strategies plan from trace's Transition.
    assert "trace" in graph["strategies"]
    assert set().union(*graph.values()) <= set(graph)
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
