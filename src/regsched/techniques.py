"""Minimization, selection, and prioritization over candidate sets.

The three classic responses to a budget too small for running everything:

* minimize - cover every shared requirement with fewer tests,
* select  - pick a subset worth running,
* prioritize - order the candidates so an evaluation function is maximized.

Exact engines exist for oracle-grade answers on small inputs; greedy
engines are the practical default. Requirement coverage is always
explicit data (a story id -> test ids map), never inferred.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations
from typing import AbstractSet, Iterable, Mapping

from .budget import Rtw, Schedule, feasible_prefix
from .depgraph import DepGraph, affected_tests
from .errors import ConfigurationError, EngineLimitError, UnsatisfiableRequirementError
from .metrics import MetricContext, QualityMetric
from .model import Build, TestCase, ordered_candidates

__all__ = [
    "RequirementCoverage",
    "Schedule",
    "rtm_minimize",
    "rts_select",
    "rtp_prioritize",
    "schedule_under_budget",
]

# Requirement coverage: story id -> the candidate tests fulfilling it.
RequirementCoverage = Mapping[str, AbstractSet[str]]


def _restricted_coverage(
    candidate_ids: AbstractSet[str], coverage: RequirementCoverage
) -> dict[str, frozenset[str]]:
    table = {}
    for story in sorted(coverage):
        covering = frozenset(coverage[story]) & candidate_ids
        if not covering:
            raise UnsatisfiableRequirementError(story)
        table[story] = covering
    return table


def rtm_minimize(
    candidates: Iterable[str | TestCase],
    coverage: RequirementCoverage,
    engine: str = "greedy",
) -> frozenset[str]:
    """A set of candidate tests fulfilling every requirement.

    ``candidates`` may be test ids or test cases. The greedy engine picks
    the test covering the most still-uncovered requirements (ties by id)
    until all are covered. The exact engine enumerates subsets in
    size-then-lexicographic order and is guarded to 15 candidates; use it
    for oracle comparisons only.
    """
    candidate_ids = frozenset(t if isinstance(t, str) else t.id for t in candidates)
    table = _restricted_coverage(candidate_ids, coverage)
    if not table:
        return frozenset()

    if engine == "exact":
        useful = sorted({t for covering in table.values() for t in covering})
        if len(useful) > 15:
            raise EngineLimitError(
                f"{len(useful)} candidates exceed the exact-cover guard of 15"
            )
        for size in range(len(useful) + 1):
            for combo in combinations(useful, size):
                chosen = set(combo)
                if all(covering & chosen for covering in table.values()):
                    return frozenset(combo)
        raise AssertionError("unreachable: the full useful set always covers")

    if engine != "greedy":
        raise ConfigurationError(f"unknown engine {engine!r}", field="engine")

    uncovered = set(table)
    chosen: set[str] = set()
    while uncovered:
        best_id, best_gain = None, -1
        for test_id in sorted(candidate_ids):
            gain = sum(1 for story in uncovered if test_id in table[story])
            if gain > best_gain:
                best_id, best_gain = test_id, gain
        assert best_id is not None and best_gain > 0
        chosen.add(best_id)
        uncovered -= {story for story in uncovered if best_id in table[story]}
    return frozenset(chosen)


def rts_select(
    b_prev: Build,
    b_next: Build,
    selector: str,
    *,
    graph: DepGraph | None = None,
    changed_classes: AbstractSet[str] = frozenset(),
    k: int = 0,
    seed: int = 0,
) -> frozenset[str]:
    """Choose a subset of the candidate set with a named strategy.

    Selectors: ``retest-all`` (the identity), ``dependency-graph``
    (tests reaching a changed class; needs ``graph`` and
    ``changed_classes``), ``random-k`` (a seeded sample of ``k`` tests,
    clamped to the candidate count).
    """
    candidate_ids = frozenset(t.id for t in ordered_candidates(b_prev, b_next))
    if selector == "retest-all":
        return candidate_ids
    if selector == "dependency-graph":
        if graph is None:
            raise ConfigurationError(
                "dependency-graph selection needs a dependency graph", field="graph"
            )
        return affected_tests(graph, changed_classes, candidate_ids)
    if selector == "random-k":
        rng = random.Random(seed)
        take = min(k, len(candidate_ids))
        return frozenset(rng.sample(sorted(candidate_ids), take))
    raise ConfigurationError(f"unknown selector {selector!r}", field="selector")


def rtp_prioritize(
    candidates: Iterable[TestCase],
    metric: QualityMetric,
    engine: str = "greedy",
    *,
    ctx: MetricContext = MetricContext(),
) -> Schedule:
    """Order the candidate set to maximize the metric.

    The exact engine enumerates all permutations (guard: 8 candidates)
    and returns the argmax; ties keep the lexicographically-first order
    because enumeration runs in lexicographic order and only strict
    improvements replace the incumbent. The greedy engine repeatedly
    appends the test whose prefix scores highest, ties by id.
    """
    durations = {t.id: t.duration for t in candidates}
    ids = sorted(durations)
    if not ids:
        return Schedule.empty(technique=f"rtp-{engine}", metric=metric.name)

    if engine == "exact":
        if len(ids) > 8:
            raise EngineLimitError(
                f"{len(ids)} candidates exceed the exact-prioritization guard of 8; use the greedy engine"
            )
        best_order: tuple[str, ...] | None = None
        best_value = float("-inf")
        for order in permutations(ids):
            value = metric.evaluate(order, ctx)
            if value > best_value:
                best_order, best_value = order, value
        assert best_order is not None
        return Schedule(
            best_order,
            sum(durations[i] for i in best_order),
            {"technique": "rtp-exact", "metric": metric.name, "value": best_value},
        )

    if engine != "greedy":
        raise ConfigurationError(f"unknown engine {engine!r}", field="engine")

    order: list[str] = []
    remaining = list(ids)
    while remaining:
        best_id, best_value = None, float("-inf")
        for test_id in remaining:
            value = metric.evaluate(order + [test_id], ctx)
            if value > best_value:
                best_id, best_value = test_id, value
        assert best_id is not None
        order.append(best_id)
        remaining.remove(best_id)
    return Schedule(
        tuple(order),
        sum(durations[i] for i in order),
        {"technique": "rtp-greedy", "metric": metric.name},
    )


def schedule_under_budget(
    schedule: Schedule, window: Rtw, durations: Mapping[str, int]
) -> Schedule:
    """Truncate an order at the longest prefix fitting the window."""
    if window.is_unbounded:
        return schedule
    kept, running = feasible_prefix(schedule.ids, durations, window)
    return Schedule(kept, running, dict(schedule.meta))
