"""Shared builders and independent oracles for the test suite.

The oracles here recompute expected values by a different route than the
library (exhaustive enumeration, path walking, step-curve simulation) so
tests never assert an implementation against itself.
"""

from __future__ import annotations

import json
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations

from regsched import (
    Build,
    BuildChain,
    DepGraph,
    HistoryBundle,
    Iteration,
    ProgramVersion,
    RetestAllStrategy,
    TestCase,
    UserStory,
    build_graph,
)

DIVERGED = "DIVERGED"


def tc(test_id: str, exectime: int = 3, setup: int = 2) -> TestCase:
    return TestCase(
        id=test_id,
        inp=f"in-{test_id}",
        expected=f"ok-{test_id}",
        exectime=exectime,
        setup=setup,
    )


def story(story_id: str, bv: float = 1, sp: float = 1) -> UserStory:
    return UserStory(id=story_id, bv=bv, sp=sp)


def build(
    index,
    tests,
    stories=(),
    program_id=None,
    ready_at=None,
    behavior_overrides=None,
):
    """A build whose program returns each test's expected outcome unless overridden."""
    tests = tuple(tests)
    behavior = {t.id: t.expected for t in tests}
    behavior.update(behavior_overrides or {})
    return Build(
        index=index,
        program=ProgramVersion(program_id if program_id is not None else index, behavior),
        specs=frozenset(stories),
        tests=frozenset(tests),
        ready_at=ready_at if ready_at is not None else index * 10,
    )


def two_builds(shared, prev_only=(), next_only=(), diverge=(), stories=(), next_stories=None):
    """Consecutive builds sharing ``shared`` tests; ``diverge`` ids flip outcome in build 2."""
    shared = tuple(shared)
    b1 = build(1, shared + tuple(prev_only), stories=stories)
    b2 = build(
        2,
        shared + tuple(next_only),
        stories=stories if next_stories is None else next_stories,
        behavior_overrides={t: DIVERGED for t in diverge},
    )
    return b1, b2


class FailingAt(RetestAllStrategy):
    """Retest-all that raises ``RuntimeError(label)`` when planning into one build."""

    def __init__(self, label, build_index):
        self.label, self.build_index = label, build_index

    def plan(self, transition):
        if transition.b_next.index == self.build_index:
            raise RuntimeError(self.label)
        return super().plan(transition)


def counted(monkeypatch, module, name):
    """Patch ``module.name`` to log each call's arguments; return the log."""
    calls = []
    real = getattr(module, name)

    def count(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, count)
    return calls


def peak_mib(fn) -> float:
    """The ``tracemalloc`` peak of a second call of ``fn``, in MiB; the first warms caches."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def unshared(b: Build) -> Build:
    """``b`` with its own copies of the test set and the program: equal values, new objects.

    ``frozenset(s)`` of a frozenset returns ``s`` itself, so the set is copied from a list.
    """
    return replace(
        b,
        tests=frozenset(list(b.tests)),
        program=ProgramVersion(b.program.id, dict(b.program.behavior)),
    )


def unshared_bundle(bundle: HistoryBundle) -> HistoryBundle:
    """``bundle`` with every build :func:`unshared`: no two builds share a set or program."""
    builds = tuple(map(unshared, bundle.chain.builds))
    return replace(bundle, chain=replace(bundle.chain, builds=builds))


def chain_of(*builds_seq) -> BuildChain:
    builds_seq = tuple(builds_seq)
    iterations = ()
    if builds_seq:
        iterations = (
            Iteration(
                index=1,
                first_build=builds_seq[0].index,
                last_build=builds_seq[-1].index,
            ),
        )
    return BuildChain(builds=builds_seq, iterations=iterations)


def stable_failure_bundle(
    n_tests: int = 20, n_cycles: int = 30, n_flaky: int = 4, seed: int = 7
) -> HistoryBundle:
    """A chain with a fixed set of tests diverging at every transition.

    Useful for studying adaptive strategies: the same ``n_flaky`` tests
    change outcome on every build, each divergence recorded as a fresh
    fault detected only by its test. The chain has ``n_cycles + 1``
    builds, all program-only changes.
    """
    rng = random.Random(seed)
    tests = [
        TestCase(
            id=f"t{n:03d}",
            inp=f"in-{n:03d}",
            expected=f"ok-{n:03d}",
            exectime=rng.randint(1, 15),
            setup=rng.randint(0, 5),
        )
        for n in range(1, n_tests + 1)
    ]
    flaky = sorted(rng.sample([t.id for t in tests], n_flaky))
    story = UserStory(id="s001", bv=5, sp=3)
    coverage = {"s001": frozenset(t.id for t in tests[:3])}

    builds = []
    faults: dict[str, frozenset[str]] = {}
    births: dict[str, int] = {}
    for i in range(1, n_cycles + 2):
        behavior = {
            t.id: (f"state-{i:03d}" if t.id in flaky else t.expected) for t in tests
        }
        builds.append(
            Build(
                index=i,
                program=ProgramVersion(i, behavior),
                specs=frozenset({story}),
                tests=frozenset(tests),
                ready_at=(i - 1) * 10,
            )
        )
        if i >= 2:
            for t in flaky:
                fault_id = f"F{i:03d}-{t}"
                faults[fault_id] = frozenset({t})
                births[fault_id] = i

    graph = build_graph(
        classes=["c01"],
        tests=[t.id for t in tests],
        class_deps=[],
        test_links=[(t.id, "c01") for t in tests],
    )
    chain = BuildChain(
        builds=tuple(builds),
        iterations=(Iteration(index=1, first_build=1, last_build=n_cycles + 1),),
    )
    return HistoryBundle(
        chain=chain, graph=graph, coverage=coverage, faults=faults, fault_births=births
    )


# --- oracles ---------------------------------------------------------------


def apfd_area_oracle(order, faults) -> float:
    """APFD via the step-curve identity, valid when every fault is detected.

    Sums the detected-fault count after each prefix:
    APFD = sum(D(i) for i in 0..n-1) / (n*m) + 1/(2n).
    """
    n, m = len(order), len(faults)
    assert n > 0 and m > 0
    first = {}
    for fault_id, detectors in faults.items():
        positions = [i for i, t in enumerate(order, start=1) if t in detectors]
        assert positions, "area oracle requires every fault detected"
        first[fault_id] = min(positions)
    area = sum(
        sum(1 for fault_id in first if first[fault_id] <= i) for i in range(n)
    )
    return float(Fraction(area, n * m) + Fraction(1, 2 * n))


def min_cover_oracle(requirements: dict[str, frozenset[str]]) -> int:
    """Smallest number of tests covering all requirements, by exhaustion."""
    if not requirements:
        return 0
    universe = sorted({t for tests in requirements.values() for t in tests})
    for size in range(len(universe) + 1):
        for combo in combinations(universe, size):
            chosen = set(combo)
            if all(tests & chosen for tests in requirements.values()):
                return size
    raise AssertionError("some requirement is uncoverable")


def reaches_oracle(graph: DepGraph, start: str, targets) -> bool:
    """Whether any simple path from ``start`` hits a target class."""
    adjacency: dict[str, set[str]] = {}
    for src, dst in graph.class_deps | graph.test_links:
        adjacency.setdefault(src, set()).add(dst)
    stack = [(start, frozenset({start}))]
    while stack:
        node, seen = stack.pop()
        if node in targets:
            return True
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                stack.append((nxt, seen | {nxt}))
    return False


def affected_oracle(graph: DepGraph, changed, candidates) -> frozenset[str]:
    return frozenset(
        t for t in candidates if t in graph.tests and reaches_oracle(graph, t, set(changed))
    )


def feasible_prefix_oracle(ids, durations, window) -> tuple[tuple[str, ...], int]:
    """Clipping by walking the ids: stop at the first one that overflows the budget."""
    budget = window.budget()
    if budget is None:
        return tuple(ids), sum(durations[i] for i in ids)
    running = 0
    kept: list[str] = []
    for test_id in ids:
        d = durations[test_id]
        if running + d > budget:
            break
        running += d
        kept.append(test_id)
    return tuple(kept), running


def failure_score_oracle(history, test_id: str, recent: int = 5) -> float:
    """Recency-weighted failure rate with the weights spelled out, newest first."""
    runs = history.records(test_id)[-recent:]
    if not runs:
        return 0.5
    newest_first = list(reversed(runs))
    k = len(newest_first)
    weights = [k - j for j in range(k)]
    weighted = sum(w for w, r in zip(weights, newest_first) if not r.passed)
    return weighted / sum(weights)


def ttcp_exact_oracle(candidates, budget, priorities=None) -> tuple[tuple[str, ...], int]:
    """Exact ttcp by enumeration: the first feasible ordering, largest size first.

    Ranks by descending priority with ties by id, then walks
    ``permutations`` of each size from the whole set down and returns the
    first ordering whose total duration fits ``budget``.
    """
    priorities = priorities or {}
    base = sorted(candidates, key=lambda t: (-priorities.get(t.id, 0.0), t.id))
    for size in range(len(base), -1, -1):
        for ordering in permutations(base, size):
            total = sum(t.duration for t in ordering)
            if total <= budget:
                return tuple(t.id for t in ordering), total
    raise AssertionError("unreachable: the empty ordering always fits")


def ttcp_greedy_oracle(candidates, window, priorities=None) -> tuple[tuple[str, ...], int]:
    """Greedy ttcp with a ranking call per id, clipped by walking the ranked ids.

    Unbounded: every id by descending priority, ties by id. Bounded:
    zero-cost tests first by id, then by descending priority per unit
    cost, ties by id. An unpriced id, or any id when ``priorities`` is
    None, has priority 0.0.
    """

    def priority(test_id):
        return 0.0 if priorities is None else priorities.get(test_id, 0.0)

    durations = {t.id: t.duration for t in candidates}
    if window.is_unbounded:
        ids = tuple(t.id for t in sorted(candidates, key=lambda t: (-priority(t.id), t.id)))
        return ids, sum(durations[i] for i in ids)

    def by_value(test_id):
        d = durations[test_id]
        return d > 0, -(priority(test_id) / d) if d else 0.0, test_id

    return feasible_prefix_oracle(sorted(durations, key=by_value), durations, window)


def rtp_greedy_oracle(candidates, metric, ctx) -> tuple[str, ...]:
    """Greedy prioritization by scoring every candidate prefix.

    Each step appends the remaining test whose prefix scores strictly
    highest, scanning in id order, so ties go to the smallest id.
    """
    order: list[str] = []
    remaining = sorted(t.id for t in candidates)
    while remaining:
        best_id, best_value = None, float("-inf")
        for test_id in remaining:
            value = metric.evaluate(order + [test_id], ctx)
            if value > best_value:
                best_id, best_value = test_id, value
        assert best_id is not None
        order.append(best_id)
        remaining.remove(best_id)
    return tuple(order)


def rtp_exact_oracle(candidates, metric, ctx) -> tuple[str, ...]:
    """Exact prioritization by scoring every permutation of the sorted ids.

    ``max`` keeps the first maximum, so ties go to the lexicographically
    first order.
    """
    ids = sorted(t.id for t in candidates)
    return max(permutations(ids), key=lambda order: metric.evaluate(order, ctx))


def rtm_greedy_oracle(candidate_ids, coverage) -> frozenset[str]:
    """Greedy set cover: the candidate covering most uncovered stories, ties by id.

    Every story must have a covering test among ``candidate_ids``.
    """
    candidate_ids = frozenset(candidate_ids)
    table = {story: frozenset(tests) & candidate_ids for story, tests in coverage.items()}
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


def run_tests_oracle(b_prev, b_next, test_ids) -> list[tuple[str, str, str, bool]]:
    """``(test_id, outcome_prev, outcome_next, consistent)`` for each test, one loop step each.

    The previous build runs first for every test, so the first missing
    behavior entry in that order raises.
    """
    rows = []
    for test_id in test_ids:
        outcome_prev = b_prev.program.execute(test_id)
        outcome_next = b_next.program.execute(test_id)
        rows.append((test_id, outcome_prev, outcome_next, outcome_prev == outcome_next))
    return rows


def execution_history_oracle(chain) -> dict[str, list[tuple[int, bool]]]:
    """``test_id -> [(build_index, passed), ...]`` over a chain's transitions.

    Each pair's shared tests run one at a time, in id order, and pass
    when both builds give the same outcome.
    """
    log: dict[str, list[tuple[int, bool]]] = {}
    for b_prev, b_next in chain.pairs():
        for test_id in sorted(b_prev.test_ids() & b_next.test_ids()):
            passed = b_prev.program.execute(test_id) == b_next.program.execute(test_id)
            log.setdefault(test_id, []).append((b_next.index, passed))
    return log


def dumps_canonical_oracle(data) -> str:
    """The canonical history, trace and report text, by its definition."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
