"""Minimization, selection, and prioritization over candidate sets.

The three classic responses to a budget too small for running everything:

* minimize - cover every shared requirement with fewer tests,
* select  - pick a subset worth running,
* prioritize - order the candidates so an evaluation function is maximized.

Exact engines exist for oracle-grade answers on small inputs; greedy
engines are the practical default. Greedy minimize, and greedy prioritize
for a metric with ``groups``, are the "additional" strategy of Rothermel
et al. (TSE 2001). Exact prioritization takes a metric's ``best_order``,
its own lexicographically first argmax, where it has one, and enumerates
permutations only for a metric without it. Requirement coverage is always
explicit data (a story id -> test ids map), never inferred.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations
from typing import AbstractSet, Iterable, Mapping, Sequence

from .budget import Schedule, durations_by_id
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
]

# Requirement coverage: story id -> the candidate tests fulfilling it.
RequirementCoverage = Mapping[str, AbstractSet[str]]


def additional_greedy(
    ids: Sequence[str], groups: Mapping[str, AbstractSet[str]]
) -> tuple[list[str], int]:
    """Order ``ids``: each pick is the first id hitting the most groups not yet hit.

    Returns the order and how many picks hit a new group; the rest keep
    the order of ``ids``.
    """
    unhit = {t: {g for g, members in groups.items() if t in members} for t in ids}
    order: list[str] = []
    while unhit:
        best = max(unhit, key=lambda t: len(unhit[t]))
        if not unhit[best]:
            break
        hit = unhit.pop(best)
        order.append(best)
        for rest in unhit.values():
            rest -= hit
    return order + list(unhit), len(order)


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

    ``candidates`` may be test ids or test cases. The greedy engine,
    ``additional_greedy``, picks the test covering the most still-uncovered
    requirements (ties by id) until all are covered. The exact engine
    enumerates subsets in size-then-lexicographic order and is guarded to
    15 candidates; use it for oracle comparisons only.
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

    order, covering = additional_greedy(sorted(candidate_ids), table)
    return frozenset(order[:covering])


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
        if k < 0:
            raise ConfigurationError("must be non-negative", field="k")
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

    The exact engine (guard: 8 candidates) returns the argmax; ties keep
    the lexicographically-first order. A metric with ``best_order`` finds
    that order itself (APFD by a dynamic program over subsets), and one
    ``evaluate`` call gives its value. For any other metric all
    permutations are enumerated in lexicographic order, and only strict
    improvements replace the incumbent. The greedy engine repeatedly
    appends the test whose prefix scores highest, ties by id; for a metric
    with ``groups`` that is ``additional_greedy``, with no ``evaluate`` call.
    A repeated candidate id raises ``ConfigurationError``.
    """
    durations = durations_by_id(candidates)
    ids = sorted(durations)
    if not ids:
        return Schedule.empty(technique=f"rtp-{engine}", metric=metric.name)

    meta: dict[str, object] = {"technique": f"rtp-{engine}", "metric": metric.name}
    if engine == "exact":
        if len(ids) > 8:
            raise EngineLimitError(
                f"{len(ids)} candidates exceed the exact-prioritization guard of 8; use the greedy engine"
            )
        if metric.best_order is not None:
            best_order = metric.best_order(ids, ctx)
            best_value = metric.evaluate(best_order, ctx)
        else:
            best_order, best_value = None, float("-inf")
            for perm in permutations(ids):
                value = metric.evaluate(perm, ctx)
                if value > best_value:
                    best_order, best_value = perm, value
            assert best_order is not None
        order, meta["value"] = list(best_order), best_value
    elif engine != "greedy":
        raise ConfigurationError(f"unknown engine {engine!r}", field="engine")
    elif metric.groups is not None:
        order, _ = additional_greedy(ids, metric.groups(ctx))
    else:
        order, remaining = [], list(ids)
        while remaining:
            best = max(remaining, key=lambda t: metric.evaluate(order + [t], ctx))
            order.append(best)
            remaining.remove(best)
    return Schedule(tuple(order), sum(durations.values()), meta)

