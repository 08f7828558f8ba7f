"""Class-level dependency graphs for change-impact test selection.

Graphs are plain data: edges arrive as explicit lists (from a simulator
run or a history file), never from parsing source code. A test depends
on the classes it touches; classes depend on classes they reference. A
changed class impacts every test that can reach it along those edges,
and the impacted candidates are then ordered by recent failure history
and clipped to the window.

The failure history is an :class:`ExecutionHistory`: per test, the
``(build_index, passed)`` of each logged run, which is all
:func:`failure_score` reads. ``strategies.DepGraphStrategy`` logs the
verdicts of each transition it runs, and ``histio`` derives one from a
chain's recorded behaviors.

Graph values are immutable; updates build new graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import AbstractSet, Iterable, Mapping

from .budget import Rtw, Schedule, feasible_prefix
from .errors import ConfigurationError, MalformedGraphError, UnknownNodeError

Edge = tuple[str, str]


@dataclass(frozen=True)
class DepGraph:
    """Directed dependencies: test -> class touched, class -> class referenced."""

    classes: frozenset[str]
    tests: frozenset[str]
    class_deps: frozenset[Edge]
    test_links: frozenset[Edge]

    @cached_property
    def _upstream(self) -> dict[str, set[str]]:
        """Inverted edges: each node's predecessors, built once per graph."""
        upstream: dict[str, set[str]] = {}
        for src, dst in self.class_deps | self.test_links:
            upstream.setdefault(dst, set()).add(src)
        return upstream


def build_graph(
    classes: Iterable[str],
    tests: Iterable[str],
    class_deps: Iterable[Edge],
    test_links: Iterable[Edge],
) -> DepGraph:
    """Assemble and validate a dependency graph from explicit edge lists.

    Duplicate edges collapse to one. Edges must connect declared nodes of
    the right kind, and self-loops are rejected.
    """
    class_set = frozenset(classes)
    test_set = frozenset(tests)
    if any(not c for c in class_set) or any(not t for t in test_set):
        raise MalformedGraphError("node identifiers must be non-empty")
    if class_set & test_set:
        raise MalformedGraphError(
            f"identifiers used as both class and test: {sorted(class_set & test_set)}"
        )
    deps = frozenset(class_deps)
    links = frozenset(test_links)
    for src, dst in deps:
        if src == dst:
            raise MalformedGraphError(f"self-loop on class {src!r}")
        if src not in class_set or dst not in class_set:
            raise MalformedGraphError(f"dangling class dependency {src!r} -> {dst!r}")
    for src, dst in links:
        if src not in test_set:
            raise MalformedGraphError(f"test link from undeclared test {src!r}")
        if dst not in class_set:
            raise MalformedGraphError(f"test link to undeclared class {dst!r}")
    return DepGraph(classes=class_set, tests=test_set, class_deps=deps, test_links=links)


@dataclass(frozen=True)
class ChangeSet:
    """Node and edge changes between two builds, plus the changed classes."""

    changed_classes: frozenset[str] = frozenset()
    added_classes: frozenset[str] = frozenset()
    added_tests: frozenset[str] = frozenset()
    added_class_deps: frozenset[Edge] = frozenset()
    added_test_links: frozenset[Edge] = frozenset()
    removed_classes: frozenset[str] = frozenset()
    removed_tests: frozenset[str] = frozenset()
    removed_class_deps: frozenset[Edge] = frozenset()
    removed_test_links: frozenset[Edge] = frozenset()


def update_graph(g: DepGraph, changes: ChangeSet) -> DepGraph:
    """Apply a change set, returning the updated graph.

    Additions happen before removals; removing a node drops its incident
    edges. Removing a node that does not exist is an error, as is a
    change set whose changed classes are absent from the updated graph.
    An empty change set returns an equal graph.
    """
    classes = set(g.classes) | set(changes.added_classes)
    tests = set(g.tests) | set(changes.added_tests)
    deps = set(g.class_deps) | set(changes.added_class_deps)
    links = set(g.test_links) | set(changes.added_test_links)

    for node in sorted(changes.removed_classes):
        if node not in classes:
            raise UnknownNodeError(f"cannot remove unknown class {node!r}")
        classes.discard(node)
        deps = {(s, d) for s, d in deps if s != node and d != node}
        links = {(s, d) for s, d in links if d != node}
    for node in sorted(changes.removed_tests):
        if node not in tests:
            raise UnknownNodeError(f"cannot remove unknown test {node!r}")
        tests.discard(node)
        links = {(s, d) for s, d in links if s != node}
    deps -= set(changes.removed_class_deps)
    links -= set(changes.removed_test_links)

    updated = build_graph(classes, tests, deps, links)
    unknown = changes.changed_classes - updated.classes
    if unknown:
        raise UnknownNodeError(f"changed classes not in graph: {sorted(unknown)}")
    return updated


def affected_tests(
    g: DepGraph, changed_classes: AbstractSet[str], candidates: AbstractSet[str]
) -> frozenset[str]:
    """Candidate tests from which some changed class is reachable.

    Implemented as a reverse reachability sweep from the changed classes
    over the graph's inverted edges, which it builds once and keeps;
    candidates absent from the graph have no edges and are never selected.
    """
    unknown = set(changed_classes) - g.classes
    if unknown:
        raise UnknownNodeError(f"unknown changed classes: {sorted(unknown)}")
    seen: set[str] = set()
    frontier = list(changed_classes)
    while frontier:
        for pred in g._upstream.get(frontier.pop(), ()):
            if pred not in seen:
                seen.add(pred)
                frontier.append(pred)
    return g.tests.intersection(seen, candidates)


@dataclass(frozen=True)
class ExecutionRecord:
    """One logged run of a test: the build it ran on and whether it passed."""

    build_index: int
    passed: bool


class ExecutionHistory:
    """Per-test failure log with non-decreasing build indices."""

    def __init__(self) -> None:
        self._records: dict[str, list[ExecutionRecord]] = {}

    def add(self, test_id: str, build_index: int, passed: bool) -> None:
        runs = self._records.setdefault(test_id, [])
        if runs and build_index < runs[-1].build_index:
            raise ValueError(
                f"build indices must be non-decreasing per test ({test_id!r}: "
                f"{runs[-1].build_index} then {build_index})"
            )
        runs.append(ExecutionRecord(build_index, passed))

    def add_build(self, build_index: int, verdicts: Iterable[tuple[str, str, str]]) -> None:
        """:meth:`add` per ``(test_id, outcome_prev, outcome_next)``, passed if the two agree."""
        passed, failed = ExecutionRecord(build_index, True), ExecutionRecord(build_index, False)
        for test_id, before, after in verdicts:
            runs = self._records.setdefault(test_id, [])
            if runs and build_index < runs[-1].build_index:
                self.add(test_id, build_index, before == after)  # raises add's error
            runs.append(passed if before == after else failed)

    def records(self, test_id: str) -> tuple[ExecutionRecord, ...]:
        return tuple(self._records.get(test_id, ()))


def failure_score(history: ExecutionHistory, test_id: str, recent: int = 5) -> float:
    """Recency-weighted failure rate over the last ``recent`` executions.

    With runs r_1 (most recent) .. r_k, k <= recent, the score is
    ``sum(w_j * failed(r_j)) / sum(w_j)`` using linear weights
    ``w_j = k - j + 1``, so the newest run counts most. Tests with no
    recorded runs score 0.5, a neutral cold-start prior. ``recent`` must
    be at least 1.
    """
    if recent < 1:
        raise ConfigurationError("must be at least 1", field="recent")
    runs = history._records.get(test_id, ())[-recent:]
    if not runs:
        return 0.5
    # Oldest first, the j-th of k runs has weight j: the newest weighs k.
    k = len(runs)
    weighted = sum(j for j, r in enumerate(runs, start=1) if not r.passed)
    return weighted / (k * (k + 1) // 2)


def order_by_history(
    selected: AbstractSet[str],
    history: ExecutionHistory,
    window: Rtw,
    durations: Mapping[str, int],
    *,
    recent: int = 5,
) -> Schedule:
    """Rank selected tests by failure history and clip to the window.

    Ranking: descending :func:`failure_score`, then shorter duration,
    then id. The result is the longest feasible prefix of the ranked
    order.
    """
    ranked = sorted(
        selected,
        key=lambda test_id: (-failure_score(history, test_id, recent), durations[test_id], test_id),
    )
    ids, total = feasible_prefix(ranked, durations, window)
    return Schedule(ids, total, {"technique": "depgraph-order"})
