import hashlib
import math
import random
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    counted,
    min_cover_oracle,
    rtm_greedy_oracle,
    rtp_exact_oracle,
    rtp_greedy_oracle,
    tc,
    two_builds,
)
from test_cli_golden import CONFIG as GOLDEN_CONFIG
from regsched import (
    MetricContext,
    QualityMetric,
    Rtw,
    Schedule,
    apfd_metric,
    build_graph,
    feasible_prefix,
    generate_chain,
    metric_by_name,
    ordered_candidates,
    rtm_minimize,
    rtp_prioritize,
    rts_select,
)
from regsched.errors import (
    ConfigurationError,
    EngineLimitError,
    RegschedError,
    UndefinedMetricError,
    UnsatisfiableRequirementError,
)
from regsched.simulate import scenario_eval_context
from regsched.techniques import additional_greedy

# Candidate ids, plus two detectors that are never candidates.
POOL = [f"t{i}" for i in range(10)] + ["x0", "x1"]
GROUP_MAPS = st.dictionaries(
    st.sampled_from([f"g{j}" for j in range(6)]),
    st.frozensets(st.sampled_from(POOL), max_size=4),
    max_size=6,
)


class TestMinimize:
    def test_single_requirement_single_cover(self):
        assert rtm_minimize(["a"], {"r1": {"a"}}) == {"a"}

    def test_known_exact_minimum(self):
        # No single test hits all three requirements; two 2-covers exist
        # ({a,c} and {b,c}), so the oracle pins the size and the engine's
        # lexicographic tie-break pins the witness.
        coverage = {"r1": {"a", "b"}, "r2": {"b", "c"}, "r3": {"c"}}
        exact = rtm_minimize(["a", "b", "c"], coverage, engine="exact")
        assert len(exact) == min_cover_oracle({k: frozenset(v) for k, v in coverage.items()}) == 2
        assert all(set(tests) & exact for tests in coverage.values())
        assert exact == {"a", "c"}

    def test_zero_requirements_need_nothing(self):
        assert rtm_minimize(["a", "b"], {}) == frozenset()

    def test_uncoverable_requirement_names_the_story(self):
        with pytest.raises(UnsatisfiableRequirementError) as exc:
            rtm_minimize(["a"], {"r9": {"zz"}})
        assert exc.value.story_id == "r9"

    def test_exact_guard(self):
        ids = [f"t{i:02d}" for i in range(16)]
        coverage = {"r1": set(ids)}
        with pytest.raises(EngineLimitError):
            rtm_minimize(ids, coverage, engine="exact")

    def test_accepts_test_cases_or_ids(self):
        assert rtm_minimize([tc("a")], {"r1": {"a"}}) == {"a"}

    @given(
        st.integers(0, 10_000),
        st.integers(1, 10),
        st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_greedy_covers_and_respects_harmonic_bound(self, seed, n_tests, n_reqs):
        rng = random.Random(seed)
        ids = [f"t{i:02d}" for i in range(n_tests)]
        coverage = {
            f"r{j}": frozenset(rng.sample(ids, rng.randint(1, n_tests)))
            for j in range(n_reqs)
        }
        greedy = rtm_minimize(ids, coverage)
        assert all(tests & greedy for tests in coverage.values())
        optimum = min_cover_oracle(coverage)
        harmonic = sum(1 / k for k in range(1, n_reqs + 1))
        assert len(greedy) <= math.ceil(harmonic * optimum) + 1e-9
        exact = rtm_minimize(ids, coverage, engine="exact")
        assert len(exact) == optimum

    @given(st.integers(1, 10).flatmap(lambda n: st.tuples(st.just(n), GROUP_MAPS)))
    @settings(max_examples=200, deadline=None)
    def test_greedy_equals_the_hand_written_oracle(self, case):
        n, raw = case
        ids = [f"t{i}" for i in range(n)]
        # Every story keeps one candidate so that it can be covered; the
        # draw adds ties, detectors outside the candidates and no stories.
        coverage = {story: tests | {ids[int(story[1:]) % n]} for story, tests in raw.items()}
        assert rtm_minimize(ids, coverage) == rtm_greedy_oracle(ids, coverage)


class TestSelect:
    def test_retest_all_is_identity(self):
        b1, b2 = two_builds(shared=[tc("a"), tc("b")], next_only=[tc("c")])
        assert rts_select(b1, b2, "retest-all") == {"a", "b"}

    def test_random_zero_is_empty(self):
        b1, b2 = two_builds(shared=[tc("a"), tc("b")])
        assert rts_select(b1, b2, "random-k", k=0) == frozenset()

    def test_random_k_is_seeded_subset(self):
        b1, b2 = two_builds(shared=[tc(f"t{i}") for i in range(8)])
        first = rts_select(b1, b2, "random-k", k=3, seed=11)
        second = rts_select(b1, b2, "random-k", k=3, seed=11)
        other = rts_select(b1, b2, "random-k", k=3, seed=12)
        assert first == second
        assert len(first) == 3
        assert first <= {t.id for t in b2.tests}
        assert first != other  # seeds 11/12 happen to differ on this instance

    def test_random_k_clamps_to_candidate_count(self):
        b1, b2 = two_builds(shared=[tc("a")])
        assert rts_select(b1, b2, "random-k", k=10) == {"a"}

    def test_dependency_graph_with_no_changes_selects_nothing(self):
        b1, b2 = two_builds(shared=[tc("a")])
        graph = build_graph(["c1"], ["a"], [], [("a", "c1")])
        assert (
            rts_select(b1, b2, "dependency-graph", graph=graph, changed_classes=frozenset())
            == frozenset()
        )

    def test_dependency_graph_requires_graph(self):
        b1, b2 = two_builds(shared=[tc("a")])
        with pytest.raises(ConfigurationError):
            rts_select(b1, b2, "dependency-graph")

    def test_unknown_selector_rejected(self):
        b1, b2 = two_builds(shared=[tc("a")])
        with pytest.raises(ConfigurationError):
            rts_select(b1, b2, "psychic")


def apfd_ctx(faults):
    return MetricContext(faults={f: frozenset(d) for f, d in faults.items()})


def outcome(run):
    try:
        return run()
    except UndefinedMetricError as exc:
        return f"undefined: {exc}"


class TestAdditionalGreedy:
    def test_takes_the_largest_gain_then_the_rest_in_given_order(self):
        groups = {"f1": {"b", "c"}, "f2": {"c"}, "f3": {"a", "b"}, "f4": {"zz"}}
        # b and c tie on two faults and b comes first; then only c hits f2.
        assert additional_greedy(["a", "b", "c", "d"], groups) == (["b", "c", "a", "d"], 2)

    def test_no_groups_keeps_the_given_order(self):
        assert additional_greedy(["b", "a"], {}) == (["b", "a"], 0)


class TestPrioritize:
    def test_single_test_is_the_only_order(self):
        sched = rtp_prioritize([tc("a")], apfd_metric(), ctx=apfd_ctx({"f": {"a"}}))
        assert sched.ids == ("a",)

    def test_exact_argmax_on_known_fault_matrix(self):
        # Oracle: evaluate all 24 permutations directly and take the max.
        tests = [tc("a", 1, 0), tc("b", 1, 0), tc("c", 1, 0), tc("d", 1, 0)]
        ctx = apfd_ctx({"f1": {"c"}, "f2": {"c", "d"}, "f3": {"b"}})
        metric = apfd_metric()
        sched = rtp_prioritize(tests, metric, engine="exact", ctx=ctx)
        best = max(
            permutations(["a", "b", "c", "d"]),
            key=lambda p: (metric.evaluate(p, ctx), [-ord(c) for c in "".join(p)]),
        )
        assert metric.evaluate(sched.ids, ctx) == metric.evaluate(best, ctx)
        assert sched.ids[0] == "c"  # c alone detects two of three faults

    def test_constant_metric_keeps_lexicographic_order(self):
        flat = QualityMetric("flat", lambda order, ctx: 1.0)
        sched = rtp_prioritize([tc("b"), tc("a"), tc("c")], flat, engine="exact")
        assert sched.ids == ("a", "b", "c")

    @pytest.mark.parametrize("engine", ["greedy", "exact"])
    def test_repeated_candidate_id_is_rejected(self, engine):
        tests = [tc("a", 1, 0), tc("a", 5, 0), tc("b", 1, 0)]
        with pytest.raises(ConfigurationError, match="'a'") as exc:
            rtp_prioritize(tests, apfd_metric(), engine, ctx=apfd_ctx({"f": {"a"}}))
        assert exc.value.field == "candidates"

    @given(
        st.lists(st.sampled_from(POOL[:10]), unique=True, max_size=10),
        st.lists(st.integers(0, 3), min_size=10, max_size=10),
        GROUP_MAPS,
        GROUP_MAPS,
        st.sampled_from(["apfd", "fault-count", "coverage"]),
    )
    @example(["t2", "t0", "t1"], [0] * 10, {}, {}, "apfd")
    @example(["t2", "t0", "t1"], [0] * 10, {}, {}, "coverage")
    @example(
        ["t1", "t0", "t2"],
        [0, 2] + [1] * 8,
        {
            "g0": frozenset({"t0", "t1"}),
            "g1": frozenset({"t0", "t1", "x0"}),
            "g2": frozenset({"x1"}),
        },
        {},
        "fault-count",
    )
    @settings(max_examples=300, deadline=None)
    def test_greedy_equals_the_prefix_scoring_oracle(self, ids, costs, faults, coverage, name):
        # Candidates come in any order with costs that may be zero; groups
        # may be empty, share detectors (tied gains) or name detectors
        # that are not candidates. Without faults apfd must raise on both
        # sides; without stories coverage keeps the id order.
        tests = [tc(i, exectime=cost, setup=0) for i, cost in zip(ids, costs)]
        ctx = MetricContext(faults=faults, coverage=coverage)
        builtin = metric_by_name(name)
        no_groups = QualityMetric(f"{name}-no-groups", builtin.fn)
        oracle = outcome(lambda: rtp_greedy_oracle(tests, builtin, ctx))
        for metric in (builtin, no_groups):
            got = outcome(lambda: rtp_prioritize(tests, metric, "greedy", ctx=ctx))
            if isinstance(oracle, str):
                assert got == oracle
            else:
                assert got.ids == oracle
                assert got.total_cost == sum(t.duration for t in tests)

    @given(
        st.lists(st.sampled_from(POOL[:8]), unique=True, min_size=1, max_size=6),
        st.lists(st.integers(0, 3), min_size=8, max_size=8),
        GROUP_MAPS,
        GROUP_MAPS,
        st.sampled_from(["apfd", "fault-count", "coverage"]),
    )
    @example(["t0"], [1] * 8, {}, {}, "apfd")
    @example(
        # Eight candidates with overlapping detectors, a detector that is not
        # a candidate and an empty detector set: 1200 orders tie for the best.
        ["t7", "t3", "t0", "t5", "t1", "t6", "t2", "t4"],
        [1, 0, 2, 3, 1, 1, 0, 2],
        {
            "g0": frozenset({"t0", "t1", "t2"}),
            "g1": frozenset({"t2", "t3"}),
            "g2": frozenset({"t3", "t4", "x0"}),
            "g3": frozenset({"t5"}),
            "g4": frozenset({"t5", "t6"}),
            "g5": frozenset(),
        },
        {},
        "apfd",
    )
    @settings(max_examples=80, deadline=None)
    def test_exact_equals_the_permutation_oracle(self, ids, costs, faults, coverage, name):
        # Each built-in metric finds its argmax without enumerating; the same
        # scoring function without that hook is enumerated. Both must give
        # the oracle's order, value and error, whatever the groups hold.
        tests = [tc(i, exectime=cost, setup=0) for i, cost in zip(ids, costs)]
        ctx = MetricContext(faults=faults, coverage=coverage)
        builtin = metric_by_name(name)
        oracle = outcome(lambda: rtp_exact_oracle(tests, builtin, ctx))
        for metric in (builtin, QualityMetric(name, builtin.fn)):
            got = outcome(lambda: rtp_prioritize(tests, metric, "exact", ctx=ctx))
            if isinstance(oracle, str):
                assert got == oracle
            else:
                assert got.ids == oracle
                assert got.total_cost == sum(t.duration for t in tests)
                value = builtin.evaluate(oracle, ctx)
                assert got.meta == {"technique": "rtp-exact", "metric": name, "value": value}

    @pytest.mark.parametrize("name", ["apfd", "fault-count", "coverage"])
    def test_exact_scores_one_order_for_a_builtin_metric(self, name, monkeypatch):
        tests = [tc(f"t{i}") for i in range(8)]
        ctx = MetricContext(
            faults={"f0": frozenset({"t1", "t5"}), "f1": frozenset({"t5", "t7"})},
            coverage={"s0": frozenset({"t2", "t3"})},
        )
        calls = counted(monkeypatch, QualityMetric, "evaluate")
        rtp_prioritize(tests, metric_by_name(name), "exact", ctx=ctx)
        assert len(calls) <= 1

    def test_exact_enumerates_every_order_for_a_metric_without_best_order(self, monkeypatch):
        tests = [tc(f"t{i}") for i in range(8)]
        calls = counted(monkeypatch, QualityMetric, "evaluate")
        rtp_prioritize(tests, QualityMetric("flat", lambda order, ctx: 0.0), "exact")
        assert len(calls) == math.factorial(8)

    def test_exact_guard_suggests_greedy(self):
        tests = [tc(f"t{i}") for i in range(9)]
        with pytest.raises(EngineLimitError, match="greedy"):
            rtp_prioritize(tests, apfd_metric(), engine="exact")

    def test_greedy_puts_detecting_tests_first(self):
        tests = [tc("a"), tc("b"), tc("c")]
        ctx = apfd_ctx({"f1": {"c"}})
        sched = rtp_prioritize(tests, apfd_metric(), engine="greedy", ctx=ctx)
        assert sched.ids[0] == "c"

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_exact_beats_every_permutation(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        ids = [f"t{i}" for i in range(n)]
        tests = [tc(i, exectime=rng.randint(1, 9), setup=0) for i in ids]
        faults = {
            f"f{j}": set(rng.sample(ids, rng.randint(1, n))) for j in range(rng.randint(1, 4))
        }
        ctx = apfd_ctx(faults)
        metric = apfd_metric()
        sched = rtp_prioritize(tests, metric, engine="exact", ctx=ctx)
        best_value = metric.evaluate(sched.ids, ctx)
        for perm in permutations(ids):
            assert best_value >= metric.evaluate(perm, ctx)

    @given(st.integers(0, 10_000), st.sampled_from([2.0, 10.0, 0.5]))
    @settings(max_examples=30, deadline=None)
    def test_positive_scaling_leaves_argmax_unchanged(self, seed, factor):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        ids = [f"t{i}" for i in range(n)]
        tests = [tc(i) for i in ids]
        faults = {
            f"f{j}": set(rng.sample(ids, rng.randint(1, n))) for j in range(rng.randint(1, 3))
        }
        ctx = apfd_ctx(faults)
        base = apfd_metric()
        scaled = QualityMetric("scaled", lambda order, c: factor * base.fn(order, c))
        assert (
            rtp_prioritize(tests, base, engine="exact", ctx=ctx).ids
            == rtp_prioritize(tests, scaled, engine="exact", ctx=ctx).ids
        )


class TestScheduleUnderBudget:
    """A technique's order is clipped to a window by ``feasible_prefix``."""

    def test_cumulative_sum_truncation(self):
        # Cumulative sums 2, 5, 9: the budget of 5 admits two tests.
        sched = Schedule(("a", "b", "c"), 9)
        durations = {"a": 2, "b": 3, "c": 4}
        assert feasible_prefix(sched.ids, durations, Rtw.of_budget(5)) == (("a", "b"), 5)

    def test_unbounded_window_returns_schedule_unchanged(self):
        sched = Schedule(("a", "b"), 5)
        assert feasible_prefix(sched.ids, {"a": 2, "b": 3}, Rtw.unbounded()) == (sched.ids, 5)

    def test_zero_budget_empties_schedule(self):
        sched = Schedule(("a",), 2)
        assert feasible_prefix(sched.ids, {"a": 2}, Rtw.of_budget(0)) == ((), 0)

    @given(
        st.lists(st.integers(1, 9), min_size=0, max_size=8),
        st.integers(0, 40),
    )
    def test_output_is_a_feasible_prefix(self, durations_list, budget):
        ids = tuple(f"t{i}" for i in range(len(durations_list)))
        durations = dict(zip(ids, durations_list))
        kept, total = feasible_prefix(ids, durations, Rtw.of_budget(budget))
        assert kept == ids[: len(kept)]
        assert total == sum(durations[i] for i in kept) <= budget
        if len(kept) < len(ids):
            assert total + durations[ids[len(kept)]] > budget


class TestExactGolden:
    """Pinned output of exact prioritization on ``test_cli_golden``'s history.

    For every consecutive build pair, each built-in metric orders the
    pair's first 7 candidates; the transcript holds the ids, total cost
    and meta, or the error. A change to the exact engine must keep every
    byte, whichever way it finds the argmax.
    """

    DIGEST = "dcb0b270e3f83ea553905a07a791e50478da7acb2af4ce9513fb76150b634f49"

    @staticmethod
    def transcript() -> str:
        bundle = generate_chain(GOLDEN_CONFIG)
        eval_context = scenario_eval_context(bundle)
        lines = []
        for b_prev, b_next in bundle.chain.pairs():
            candidates = ordered_candidates(b_prev, b_next)[:7]
            ctx = eval_context(b_prev, b_next, (), ())
            for name in ("apfd", "coverage", "fault-count"):
                try:
                    sched = rtp_prioritize(candidates, metric_by_name(name), "exact", ctx=ctx)
                    got = f"{sched.ids!r} {sched.total_cost} {sched.meta!r}"
                except RegschedError as exc:
                    got = f"{type(exc).__name__}: {exc}"
                lines.append(f"{b_prev.index}->{b_next.index} {name} {got}\n")
        return "".join(lines)

    def test_exact_bytes_are_pinned(self):
        assert hashlib.sha256(self.transcript().encode()).hexdigest() == self.DIGEST
