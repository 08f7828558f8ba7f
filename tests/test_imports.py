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


def module_graph() -> dict[str, set[str]]:
    """Each package module, but ``__init__``, mapped to its sibling imports."""
    return {
        path.stem: sibling_imports(path)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }


def transitive_imports(module: str) -> set[str]:
    """The package modules that importing ``module`` loads, directly or through another."""
    graph, seen, todo = module_graph(), set(), [module]
    while todo:
        for name in graph[todo.pop()] - seen:
            seen.add(name)
            todo.append(name)
    return seen


def test_module_graph_has_no_cycle():
    graph = module_graph()
    # The parse sees real edges: strategies plan from trace's Transition.
    assert "trace" in graph["strategies"]
    assert set().union(*graph.values()) <= set(graph)
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


@pytest.mark.parametrize("module", ["depgraph", "histio"])
def test_failure_log_readers_do_not_import_the_adaptive_scheduler(module):
    assert not transitive_imports(module) & {"simulate", "strategies", "retecs"}


def test_metrics_imports_no_sibling_but_errors():
    assert transitive_imports("metrics") == {"errors"}


def unused_imports(path: Path) -> list[str]:
    """The names ``path`` imports but never reads, nor lists in ``__all__``."""
    tree = ast.parse(path.read_text())
    imported: set[str] = set()
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


@pytest.mark.parametrize(
    "module",
    sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__"),
)
def test_every_import_is_used(module):
    # __init__ is exempt: it imports to re-export.
    assert unused_imports(PACKAGE / f"{module}.py") == []
