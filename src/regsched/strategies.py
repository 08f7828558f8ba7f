"""Built-in scheduling strategies usable with the trace recorder.

Four strategies ship with the library:

* ``retest-all``   - the whole candidate set in id order, clipped to the
                     window when one is bounded,
* ``random-k``     - a seeded random sample of k candidates,
* ``retecs``       - the adaptive weight-tableau scheduler,
* ``depgraph``     - change-impact selection ordered by failure history.

All are deterministic given their construction parameters, so recording
the same strategy twice over the same chain yields identical traces.
"""

from __future__ import annotations

import random
from typing import Mapping

from .budget import Schedule, feasible_prefix
from .depgraph import DepGraph, ExecutionHistory, affected_tests, order_by_history
from .errors import ConfigurationError, require_int
from .metrics import QualityMetric
from .model import Build, diverged_tests
from .regall import failed_ids
from .retecs import AgentState, agent_update, plan_schedule
from .trace import Transition, TransitionStep


class RetestAllStrategy:
    """Run every candidate, in id order.

    The identity under an unbounded window; under a bounded one the order
    is clipped to the longest feasible prefix (an unclipped run would
    break the per-build time contract).
    """

    name = "retest-all"

    def plan(self, transition: Transition) -> Schedule:
        window = transition.window
        ids, total = feasible_prefix(tuple(transition.durations), transition.durations, window)
        clipped = len(ids) < len(transition.candidates) and not window.is_unbounded
        return Schedule(ids, total, {"technique": self.name, "clipped": clipped})

    def observe(self, step: TransitionStep) -> None:
        pass


class RandomKStrategy:
    """A seeded sample of k candidates per transition, clipped to budget."""

    name = "random-k"

    def __init__(self, k: int, seed: int = 0):
        if k < 0:
            raise ConfigurationError("must be non-negative", field="k")
        self.k = k
        self._rng = random.Random(seed)

    def plan(self, transition: Transition) -> Schedule:
        durations = transition.durations
        sampled = self._rng.sample(list(durations), min(self.k, len(durations)))
        ids, total = feasible_prefix(sampled, durations, transition.window)
        return Schedule(ids, total, {"technique": self.name, "k": self.k})

    def observe(self, step: TransitionStep) -> None:
        pass


class RetecsStrategy:
    """Adaptive weight-tableau scheduling with experience replay."""

    name = "retecs"

    def __init__(
        self,
        metric: QualityMetric,
        engine: str = "greedy",
        state: AgentState | None = None,
    ):
        self.metric = metric
        self.engine = engine
        self.state = state if state is not None else AgentState()

    def plan(self, transition: Transition) -> Schedule:
        return plan_schedule(transition, self.state, self.metric, self.engine)

    def observe(self, step: TransitionStep) -> None:
        self.state = agent_update(self.state, step.schedule, failed_ids(step.verdicts))


def infer_changed_classes(
    b_prev: Build, b_next: Build, graph: DepGraph
) -> frozenset[str]:
    """Classes touched by the transition, inferred from observable deltas.

    A class counts as changed when it is linked from a test that was
    added in the next build, or from a shared test whose outcome differs
    between the two programs. This stands in for commit metadata, which
    the simulated histories do not carry.
    """
    changed_tests = diverged_tests(b_prev, b_next)
    if b_prev.tests is not b_next.tests:
        changed_tests |= b_next.test_ids() - b_prev.test_ids()
    return frozenset([dst for src, dst in graph.test_links if src in changed_tests])


class DepGraphStrategy:
    """Change-impact selection plus failure-history prioritization.

    Holds a static class-level graph and builds up its own execution
    history across cycles; the history orders the impacted tests.
    """

    name = "depgraph"

    def __init__(self, graph: DepGraph, recent: int = 5):
        if recent < 1:
            raise ConfigurationError("must be at least 1", field="recent")
        self.graph = graph
        self.recent = recent
        self.history = ExecutionHistory()

    def plan(self, transition: Transition) -> Schedule:
        durations = transition.durations
        changed = infer_changed_classes(transition.b_prev, transition.b_next, self.graph)
        selected = affected_tests(self.graph, changed, durations.keys())
        schedule = order_by_history(
            selected, self.history, transition.window, durations, recent=self.recent
        )
        return Schedule(schedule.ids, schedule.total_cost, {"technique": self.name})

    def observe(self, step: TransitionStep) -> None:
        self.history.add_build(step.transition.b_next.index, step.verdicts)


# The parameters each built-in strategy takes; any other key is an error.
_PARAMS: dict[str, tuple[str, ...]] = {
    "retest-all": (),
    "random-k": ("k", "seed"),
    "retecs": ("engine", "capacity", "decay", "failure_reward"),
    "depgraph": ("recent",),
}


def make_strategy(
    name: str,
    params: Mapping[str, object] | None = None,
    *,
    graph: DepGraph | None = None,
    metric: QualityMetric | None = None,
    seed: int = 0,
):
    """Instantiate a built-in strategy by name.

    ``random-k`` takes ``k`` and optionally ``seed``; ``retecs`` takes
    ``engine``, ``capacity``, ``decay``, and ``failure_reward`` and needs
    a metric; ``depgraph`` takes ``recent`` and needs a graph. ``k``,
    ``seed``, ``capacity`` and ``recent`` must be integers, ``decay`` and
    ``failure_reward`` finite numbers, and ``engine`` ``greedy`` or
    ``exact``. Values are checked, never coerced: an unknown key,
    a wrong type or an out-of-range value raises ``ConfigurationError``
    naming the key.
    """
    if params is not None and not isinstance(params, Mapping):
        raise ConfigurationError("must be a JSON object", field="params")
    params = dict(params or {})
    if not isinstance(name, str) or name not in _PARAMS:
        raise ConfigurationError(f"unknown strategy {name!r}", field="strategy")
    unknown = [key for key in params if key not in _PARAMS[name]]
    if unknown:
        raise ConfigurationError(
            f"not a {name} parameter; known: {list(_PARAMS[name])}", field=unknown[0]
        )
    if name == "retest-all":
        return RetestAllStrategy()
    if name == "random-k":
        if "k" not in params:
            raise ConfigurationError("random-k needs a sample size", field="k")
        return RandomKStrategy(
            k=require_int(params["k"], "k"), seed=require_int(params.get("seed", seed), "seed")
        )
    if name == "retecs":
        if metric is None:
            raise ConfigurationError("retecs needs a quality metric", field="metric")
        engine = params.get("engine", "greedy")
        if engine not in ("greedy", "exact"):
            raise ConfigurationError(f"must be greedy or exact, got {engine!r}", field="engine")
        state = AgentState(
            capacity=require_int(params.get("capacity", 10), "capacity"),
            decay=_number(params, "decay", 0.95),
            failure_reward=_number(params, "failure_reward", 1.0),
        )
        return RetecsStrategy(metric, engine=engine, state=state)
    if graph is None:
        raise ConfigurationError("depgraph needs a dependency graph", field="graph")
    return DepGraphStrategy(graph, recent=require_int(params.get("recent", 5), "recent"))


def _number(params: Mapping[str, object], key: str, default: float) -> float:
    """``params[key]`` as a float; ``AgentState`` checks its range."""
    value = params.get(key, default)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ConfigurationError(f"must be a finite number, got {value!r}", field=key)
