"""Adaptive, history-driven test scheduling under a time budget.

Two cooperating steps run at every build transition:

* ``ttcp`` (time-limited test-case prioritization) produces a
  budget-feasible ordering of the candidate set. The exact engine
  builds the first ordering, in priority order, among those that run
  as many tests as the budget allows; the greedy engine sorts by
  learned priority per unit cost and truncates to the budget.
* ``atcs`` (adaptive test-case selection) looks at sequences executed in
  earlier cycles and picks the feasible one with the best recorded
  outcome quality, so leftover time is spent where failures showed up
  before.

A lightweight weight-tableau agent ties the cycles together. It takes
each cycle's executed order and the ids of its failed tests, as RETECS
(Spieker et al., ISSTA 2017) learns from each cycle's failures: failing
tests gain weight, long-passing tests decay, and the pair enters a
bounded FIFO replay buffer as ``(order, failed)``, which is all ``atcs``
reads. Unlike RETECS the agent computes no per-sequence reward: the
weights learn from ``failure_reward`` per failed test, and ``atcs``
re-scores each stored order against its own failures. One cycle (plan,
run, score, learn) is ``strategies.RetecsStrategy`` driven by
``trace.run_transitions`` over a two-build chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Iterable, Mapping, Sequence

from .budget import Rtw, Schedule, durations_by_id, feasible_prefix
from .errors import ConfigurationError, UndefinedMetricError
from .metrics import MetricContext, QualityMetric
from .model import TestCase
from .trace import Transition


@dataclass(frozen=True)
class BufferEntry:
    """An executed sequence and the tests in it that failed."""

    order: tuple[str, ...]
    failed: frozenset[str]


# The weight of a test the agent has never seen executed.
INITIAL_WEIGHT = 1.0


@dataclass(frozen=True)
class AgentState:
    """Learned per-test priority weights plus a bounded replay buffer.

    Update rule, applied to every executed test:

        weight <- weight * decay + (failure_reward if the test failed else 0)

    so weights live in ``[0, failure_reward / (1 - decay)]``. Tests never
    executed read as :data:`INITIAL_WEIGHT`. The buffer keeps the last
    ``capacity`` executed ``(order, failed)`` entries, evicting strictly
    oldest-first.
    """

    weights: Mapping[str, float] = field(default_factory=dict)
    buffer: tuple[BufferEntry, ...] = ()
    capacity: int = 10
    decay: float = 0.95
    failure_reward: float = 1.0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigurationError("replay buffer capacity must be at least 1", field="capacity")
        if not 0.0 < self.decay < 1.0:
            raise ConfigurationError("must lie strictly between 0 and 1", field="decay")
        if not 0.0 <= self.failure_reward < math.inf:
            raise ConfigurationError("must be a finite number >= 0", field="failure_reward")
        if len(self.buffer) > self.capacity:
            raise ConfigurationError("replay buffer exceeds its capacity", field="buffer")


def ttcp(
    candidates: Sequence[TestCase],
    metric: QualityMetric,
    window: Rtw,
    engine: str = "greedy",
    *,
    priorities: Mapping[str, float] | None = None,
    ctx: MetricContext = MetricContext(),
    durations: Mapping[str, int] | None = None,
) -> Schedule:
    """Produce a budget-feasible ordering of the candidate set.

    Both engines rank by descending priority, ties by id. The exact engine
    returns the lexicographically first ordering of ``k`` tests that fits,
    ``k`` being the most that fit: each slot takes the first candidate
    whose cost, plus the cheapest ``k``-completing costs ranked after it,
    fits (O(n^2 log n), no size limit). The greedy engine ranks by priority
    per unit cost, zero-cost tests first (they always fit), and keeps the
    longest feasible prefix. No result depends on ``metric`` or ``ctx``. An
    unbounded window gives the full priority ordering; a window too small
    for any test gives an empty schedule flagged ``budget_starved``. Both
    engines price by ``durations`` (by default ``durations_by_id``, which
    rejects a repeated candidate id with ``ConfigurationError``).
    """
    if durations is None:
        durations = durations_by_id(candidates)
    priority = (priorities or {}).get

    def by_priority(t: TestCase) -> tuple[float, str]:
        return -priority(t.id, 0.0), t.id

    if window.is_unbounded:
        ids = tuple(t.id for t in sorted(candidates, key=by_priority))
        return Schedule.from_ids(ids, durations, technique=f"ttcp-{engine}")

    budget = window.budget()
    assert budget is not None

    if engine == "exact":
        k = len(feasible_prefix(sorted(durations, key=durations.__getitem__), durations, window)[0])
        base = [t.id for t in sorted(candidates, key=by_priority)]
        ids: tuple[str, ...] = ()
        total = 0
        for position, test_id in enumerate(base):
            if len(ids) == k:
                break
            rest = sorted(map(durations.__getitem__, base[position + 1 :]))[: k - 1 - len(ids)]
            if total + durations[test_id] + sum(rest) <= budget:
                ids += (test_id,)
                total += durations[test_id]
    elif engine == "greedy":
        keys = [(d > 0, -(priority(i, 0.0) / d) if d else 0.0, i) for i, d in durations.items()]
        ids, total = feasible_prefix([i for _, _, i in sorted(keys)], durations, window)
    else:
        raise ConfigurationError(f"unknown engine {engine!r}", field="engine")
    meta: dict[str, object] = {"technique": f"ttcp-{engine}"}
    if not ids and durations:
        meta["budget_starved"] = True
    return Schedule(ids, total, meta)


def atcs(
    history: Sequence[BufferEntry],
    metric: QualityMetric,
    window: Rtw,
    *,
    durations: Mapping[str, int],
) -> Schedule | None:
    """Pick the historical sequence with the best recorded quality.

    ``durations`` prices the current candidates by id. Each past sequence
    is filtered to those candidates, truncated to the longest feasible
    prefix, and re-scored with the metric against that run's own recorded
    failures (so comparisons stay on one scale even after truncation).
    The best score wins; ties go to the most recent sequence. ``None``
    means no entry kept a test: the history is empty, or every entry
    filtered or truncated to nothing.
    """
    best: tuple[float, int] | None = None
    best_ids: tuple[str, ...] = ()
    best_cost = 0
    for position, entry in enumerate(history):
        filtered = [t for t in entry.order if t in durations]
        ids, total = feasible_prefix(filtered, durations, window)
        if not ids:
            continue
        try:
            score = metric.evaluate(ids, MetricContext.from_failures(sorted(entry.failed)))
        except UndefinedMetricError:
            score = 0.0
        key = (score, position)
        if best is None or key > best:
            best, best_ids, best_cost = key, ids, total
    if best is None:
        return None
    return Schedule(best_ids, best_cost, {"technique": "atcs", "score": best[0]})


def plan_schedule(
    transition: Transition,
    state: AgentState,
    metric: QualityMetric,
    engine: str = "greedy",
) -> Schedule:
    """One transition's schedule: ttcp first, then adaptive refinement.

    The ttcp ordering (driven by learned weights) forms the head of the
    schedule; whatever budget remains is filled with tests from the atcs
    pick that are not already scheduled, in the pick's order. Priorities,
    ttcp, the atcs pick and the fill all read ``transition.durations``.
    With no atcs pick the ttcp schedule is returned unchanged. Under an
    unbounded window the plan is simply the full candidate ordering, so
    the cycle degenerates to running everything.
    """
    window, durations = transition.window, transition.durations
    priorities = dict(zip(durations, map(state.weights.get, durations, repeat(INITIAL_WEIGHT))))
    base = ttcp(
        transition.candidates, metric, window, engine, priorities=priorities, durations=durations
    )
    if window.is_unbounded:
        return base
    pick = atcs(state.buffer, metric, window, durations=durations)
    if pick is None or pick.ids == base.ids:
        return base
    budget = window.budget()
    assert budget is not None
    merged = list(base.ids)
    seen = set(merged)
    total = base.total_cost
    for test_id in pick.ids:
        if test_id in seen:
            continue
        d = durations[test_id]
        if total + d <= budget:
            merged.append(test_id)
            seen.add(test_id)
            total += d
    meta = dict(base.meta)
    meta["technique"] = f"retecs-{engine}"
    return Schedule(tuple(merged), total, meta)


def agent_update(state: AgentState, executed: Schedule, failed: Iterable[str]) -> AgentState:
    """Fold one executed schedule's failures into the agent.

    ``failed`` holds the ids of the tests that failed; ids outside the
    schedule are ignored. The executed order and its failed tests enter
    the replay buffer, an empty schedule too, evicting the oldest entry
    at capacity. Only executed tests' weights move.
    """
    failed = frozenset(failed).intersection(executed.ids)
    weights = dict(state.weights)
    for test_id in executed.ids:
        w = weights.get(test_id, INITIAL_WEIGHT)
        bump = state.failure_reward if test_id in failed else 0.0
        weights[test_id] = w * state.decay + bump
    buffer = (state.buffer + (BufferEntry(executed.ids, failed),))[-state.capacity :]
    return replace(state, weights=weights, buffer=buffer)
