import random
import time
from dataclasses import fields
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build, tc, ttcp_exact_oracle, ttcp_greedy_oracle, two_builds
from regsched import (
    AgentState,
    BufferEntry,
    BuildChain,
    RetecsStrategy,
    Rtw,
    Schedule,
    Transition,
    agent_update,
    apfd_metric,
    atcs,
    fault_count_metric,
    plan_schedule,
    reg_all,
    run_transitions,
    ttcp,
)
from regsched.budget import durations_by_id
from regsched.errors import BuildOrderError, ConfigurationError

METRIC = fault_count_metric()


def suite(durations):
    return [tc(f"t{i:02d}", exectime=d, setup=0) for i, d in enumerate(durations)]


class TestTtcp:
    def test_exact_returns_first_enumerated_permutation_when_all_fit(self):
        tests = suite([2, 3, 4])
        priorities = {"t01": 5.0}
        sched = ttcp(tests, METRIC, Rtw.of_budget(100), engine="exact", priorities=priorities)
        # t01 leads on priority; the rest follow in id order.
        assert sched.ids == ("t01", "t00", "t02")

    def test_zero_budget_is_starved_not_an_error(self):
        sched = ttcp(suite([2, 3]), METRIC, Rtw.of_budget(0), engine="greedy")
        assert sched.ids == ()
        assert sched.meta.get("budget_starved") is True

    def test_greedy_drops_one_of_two_equal_tests(self):
        # Both orders and both one-test prefixes brute-forced: with budget
        # 5 and durations (5, 5) exactly one test fits either way.
        tests = suite([5, 5])
        sched = ttcp(tests, METRIC, Rtw.of_budget(5), engine="greedy")
        assert len(sched.ids) == 1
        assert sched.total_cost == 5

    def test_exact_finds_feasible_subset_when_full_set_overflows(self):
        tests = suite([5, 5])
        sched = ttcp(tests, METRIC, Rtw.of_budget(5), engine="exact")
        assert len(sched.ids) == 1
        assert sched.total_cost <= 5

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 9), st.integers(0, 2)),
            max_size=7,
        ),
        st.integers(0, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_exact_matches_permutation_enumeration(self, rows, budget):
        # Small priority and cost ranges force ties; setup 0 with
        # exectime 0 gives zero-duration tests.
        tests = [tc(f"t{i:02d}", exectime=e, setup=s) for i, (_, e, s) in enumerate(rows)]
        priorities = {t.id: float(p) for t, (p, _, _) in zip(tests, rows)}
        sched = ttcp(tests, METRIC, Rtw.of_budget(budget), engine="exact", priorities=priorities)
        assert (sched.ids, sched.total_cost) == ttcp_exact_oracle(tests, budget, priorities)
        assert sched.meta.get("budget_starved", False) == (not sched.ids and bool(tests))

    def test_exact_scales_to_hundreds_of_candidates(self):
        rng = random.Random(5)
        tests = suite([rng.randint(1, 20) for _ in range(500)])
        priorities = {t.id: rng.random() for t in tests}
        budget = 1500
        start = time.perf_counter()
        sched = ttcp(tests, METRIC, Rtw.of_budget(budget), engine="exact", priorities=priorities)
        elapsed = time.perf_counter() - start
        cheapest, fits = sorted(t.duration for t in tests), 0
        while fits < len(cheapest) and sum(cheapest[: fits + 1]) <= budget:
            fits += 1
        chosen = set(sched.ids)
        assert len(chosen) == len(sched.ids) == fits
        assert sched.total_cost == sum(t.duration for t in tests if t.id in chosen)
        assert sched.total_cost <= budget
        assert elapsed < 1.0

    @pytest.mark.parametrize("engine", ["greedy", "exact"])
    @pytest.mark.parametrize(
        "window", [Rtw.of_budget(10), Rtw.unbounded()], ids=["bounded", "unbounded"]
    )
    def test_repeated_candidate_id_is_rejected(self, engine, window):
        tests = [tc("a", 1, 0), tc("a", 5, 0), tc("b", 1, 0)]
        with pytest.raises(ConfigurationError, match="'a'") as exc:
            ttcp(tests, METRIC, window, engine=engine)
        assert exc.value.field == "candidates"

    def test_unknown_engine_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError) as exc:
            ttcp(suite([1]), METRIC, Rtw.of_budget(5), engine="bogus")
        assert exc.value.field == "engine"

    def test_unbounded_window_runs_everything(self):
        tests = suite([3, 4, 5])
        for engine in ("exact", "greedy"):
            sched = ttcp(tests, METRIC, Rtw.unbounded(), engine=engine)
            assert set(sched.ids) == {t.id for t in tests}

    def test_greedy_prefers_priority_per_cost(self):
        tests = [tc("slow", exectime=10, setup=0), tc("fast", exectime=2, setup=0)]
        priorities = {"slow": 1.0, "fast": 1.0}
        sched = ttcp(tests, METRIC, Rtw.of_budget(12), engine="greedy", priorities=priorities)
        assert sched.ids == ("fast", "slow")

    def test_greedy_ranks_zero_cost_tests_first_by_id(self):
        # A zero-cost test has no priority per unit cost; it always fits.
        tests = [tc("b", exectime=0, setup=0), tc("c", exectime=2, setup=0),
                 tc("a", exectime=0, setup=0), tc("d", exectime=9, setup=0)]
        priorities = {"c": 5.0, "d": 0.1}
        sched = ttcp(tests, METRIC, Rtw.of_budget(3), engine="greedy", priorities=priorities)
        assert (sched.ids, sched.total_cost) == (("a", "b", "c"), 2)
        starved = ttcp(tests, METRIC, Rtw.of_budget(0), engine="greedy", priorities=priorities)
        assert starved.ids == ("a", "b")
        assert "budget_starved" not in starved.meta

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([None, 0.0, 0.5, 1.0, 2.0]), st.integers(0, 3), st.integers(0, 2)
            ),
            max_size=8,
        ),
        st.booleans(),
        st.integers(0, 3).flatmap(
            lambda start: st.builds(Rtw, st.just(start), st.none() | st.integers(start, start + 20))
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_greedy_matches_the_per_id_ranking_oracle(self, rows, priced, window):
        # Few priorities and costs force equal ratios and zero durations; a
        # None priority leaves the id unpriced.
        tests = [tc(f"t{i:02d}", exectime=e, setup=s) for i, (_, e, s) in enumerate(rows)]
        priorities = None
        if priced:
            priorities = {t.id: p for t, (p, _, _) in zip(tests, rows) if p is not None}
        sched = ttcp(tests, METRIC, window, engine="greedy", priorities=priorities)
        assert (sched.ids, sched.total_cost) == ttcp_greedy_oracle(tests, window, priorities)
        starved = not window.is_unbounded and not sched.ids and bool(tests)
        assert sched.meta.get("budget_starved", False) == starved

    @given(
        st.lists(st.integers(1, 9), min_size=1, max_size=6),
        st.integers(0, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_returns_feasible_whenever_one_exists(self, durations, budget):
        # Oracle: enumerate every subset for a feasible non-empty pick.
        tests = suite(durations)
        sched = ttcp(tests, METRIC, Rtw.of_budget(budget), engine="exact")
        assert sched.total_cost <= budget
        exists = any(
            sum(d for d in pick) <= budget
            for size in range(1, len(durations) + 1)
            for pick in combinations(durations, size)
        )
        assert bool(sched.ids) == exists
        if sum(durations) <= budget:
            assert len(sched.ids) == len(durations)

    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 2), st.sampled_from([0.0, 0.5, 1.0, 3.0])),
            max_size=7,
        ),
        st.sampled_from(["greedy", "exact"]),
        st.sampled_from([None, 0, 1, 5, 12, 40]),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_passed_price_map_gives_the_same_schedule(self, rows, engine, budget):
        tests = [tc(f"t{i:02d}", exectime=e, setup=s) for i, (e, s, _) in enumerate(rows)]
        priorities = {t.id: p for t, (_, _, p) in zip(tests, rows)}
        window = Rtw.of_budget(budget)
        own = ttcp(tests, METRIC, window, engine, priorities=priorities)
        passed = ttcp(
            tests, METRIC, window, engine, priorities=priorities, durations=durations_by_id(tests)
        )
        assert (passed.ids, passed.total_cost, passed.meta) == (own.ids, own.total_cost, own.meta)


class TestAtcs:
    def entry(self, order, failed):
        return BufferEntry(tuple(order), frozenset(failed))

    def test_single_feasible_sequence_is_returned(self):
        durations = durations_by_id(suite([2, 3]))
        history = [self.entry(["t01", "t00"], failed=["t01"])]
        sched = atcs(history, METRIC, Rtw.of_budget(10), durations=durations)
        assert sched.ids == ("t01", "t00")

    def test_highest_scoring_sequence_wins(self):
        # Re-scored with apfd against each entry's own failures:
        # entry1 = 1 - 2/2 + 1/4 = 0.25, entry2 = 1 - 1/2 + 1/4 = 0.75.
        durations = durations_by_id(suite([1, 1]))
        low = self.entry(["t00", "t01"], failed=["t01"])
        high = self.entry(["t00", "t01"], failed=["t00"])
        sched = atcs([high, low], apfd_metric(), Rtw.of_budget(10), durations=durations)
        assert sched.meta["score"] == 0.75

    def test_infeasible_best_is_prefix_truncated_and_rescored(self):
        # Budget 4 admits only t00 (cost 3) from the best sequence; the
        # prefix oracle gives ("t00",) with cost 3.
        durations = durations_by_id(suite([3, 3]))
        history = [self.entry(["t00", "t01"], failed=["t00", "t01"])]
        sched = atcs(history, METRIC, Rtw.of_budget(4), durations=durations)
        assert sched.ids == ("t00",)
        assert sched.total_cost == 3

    def test_ties_go_to_most_recent(self):
        durations = durations_by_id(suite([1, 1]))
        older = self.entry(["t00"], failed=["t00"])
        newer = self.entry(["t01"], failed=["t01"])
        sched = atcs([older, newer], METRIC, Rtw.of_budget(10), durations=durations)
        assert sched.ids == ("t01",)

    def test_empty_history_returns_none(self):
        assert atcs([], METRIC, Rtw.of_budget(10), durations=durations_by_id(suite([2]))) is None

    def test_sequences_outside_candidates_are_filtered(self):
        durations = durations_by_id(suite([2]))
        history = [self.entry(["gone", "t00"], failed=["t00"])]
        sched = atcs(history, METRIC, Rtw.of_budget(10), durations=durations)
        assert sched.ids == ("t00",)

    def test_entries_that_filter_to_nothing_leave_the_ttcp_plan(self):
        # One entry names no candidate; the other's first test overflows
        # the budget, so its feasible prefix is empty.
        tests = suite([2, 9])
        b1, b2 = two_builds(shared=tests)
        transition = Transition.of(b1, b2, Rtw.of_budget(5))
        history = (self.entry(["gone"], failed=["gone"]), self.entry(["t01", "t00"], failed=[]))
        assert atcs(history, METRIC, transition.window, durations=transition.durations) is None
        base = ttcp(tests, METRIC, transition.window, priorities={"t00": 1.0, "t01": 1.0})
        plan = plan_schedule(transition, AgentState(buffer=history), METRIC)
        assert plan == base
        assert plan.meta["technique"] == "ttcp-greedy"


class TestAgentUpdate:
    def state(self):
        return AgentState(weights={"a": 2.0, "b": 1.0, "c": 4.0}, capacity=3)

    def test_all_passing_weights_decay(self):
        executed = Schedule(("a", "b"), 0)
        updated = agent_update(self.state(), executed, ())
        assert updated.weights["a"] == 2.0 * 0.95
        assert updated.weights["b"] == 1.0 * 0.95
        assert updated.weights["c"] == 4.0  # untouched

    def test_failing_test_weight_strictly_increases(self):
        # Hand-applied rule on the 3-test state: 2.0 * 0.95 + 1.0 = 2.9.
        executed = Schedule(("a", "b"), 0)
        updated = agent_update(self.state(), executed, ["a"])
        assert updated.weights["a"] == pytest.approx(2.9)
        assert updated.weights["a"] > 2.0
        assert updated.buffer[-1] == BufferEntry(("a", "b"), frozenset({"a"}))

    def test_empty_schedule_appends_an_empty_entry(self):
        updated = agent_update(self.state(), Schedule.empty(), ())
        assert updated.weights == self.state().weights
        assert updated.buffer == (BufferEntry((), frozenset()),)

    def test_buffer_entry_holds_only_the_order_and_its_failures(self):
        assert [f.name for f in fields(BufferEntry)] == ["order", "failed"]

    def test_a_failed_id_outside_the_schedule_changes_nothing(self):
        executed = Schedule(("a", "b"), 0)
        inside = agent_update(self.state(), executed, ["a"])
        assert agent_update(self.state(), executed, ["a", "c", "zz"]) == inside
        assert inside.buffer[-1] == BufferEntry(("a", "b"), frozenset({"a"}))
        assert inside.weights["c"] == 4.0

    def test_buffer_eviction_is_fifo(self):
        state = AgentState(capacity=2)
        for n in range(4):
            state = agent_update(state, Schedule((f"t{n}",), 0), ())
        assert [e.order for e in state.buffer] == [("t2",), ("t3",)]
        assert len(state.buffer) == 2

    def test_update_is_deterministic(self):
        executed = Schedule(("a", "b", "c"), 0)
        once = agent_update(self.state(), executed, ["a", "c"])
        twice = agent_update(self.state(), executed, ["c", "a"])
        assert once == twice


def cycle(b_prev, b_next, state, window):
    """One adaptive cycle: the step it ran and the agent state it left."""
    strategy = RetecsStrategy(METRIC, "greedy", state)
    (step,) = run_transitions(strategy, BuildChain((b_prev, b_next)), [window], METRIC)
    return step, strategy.state


class TestCycle:
    def test_unbounded_fresh_state_runs_the_whole_candidate_set(self):
        b1, b2 = two_builds(shared=[tc("a"), tc("b"), tc("c")])
        step, _ = cycle(b1, b2, AgentState(), Rtw.unbounded())
        assert set(step.schedule.ids) == {"a", "b", "c"}

    def test_zero_candidates_still_logs_a_cycle(self):
        b1 = build(1, [tc("a")])
        b2 = build(2, [tc("b")])
        step, state = cycle(b1, b2, AgentState(), Rtw.of_budget(10))
        assert step.schedule.ids == ()
        assert state.buffer == (BufferEntry((), frozenset()),)

    def test_non_consecutive_builds_rejected(self):
        b1 = build(1, [tc("a")])
        b3 = build(3, [tc("a")])
        with pytest.raises(BuildOrderError):
            cycle(b1, b3, AgentState(), Rtw.unbounded())

    def test_unbounded_cycle_matches_full_overlap_comparison(self):
        b1, b2 = two_builds(shared=[tc("a"), tc("b"), tc("c")], diverge=["b"])
        window = Rtw.unbounded()
        state = AgentState()
        # Even with junk history in the buffer the unbounded cycle must
        # degenerate to running everything.
        state = agent_update(state, Schedule(("a",), 5), ["a"])
        step, _ = cycle(b1, b2, state, window)
        reference = reg_all(b1, b2, window)
        assert sorted(step.verdicts, key=lambda v: v.test_id) == list(reference.verdicts)

    @given(
        st.lists(st.integers(1, 9), min_size=1, max_size=8),
        st.integers(0, 40),
        st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded_plans_never_overrun(self, durations, budget, seed):
        rng = random.Random(seed)
        transition = Transition.of(*two_builds(shared=suite(durations)), Rtw.of_budget(budget))
        state = AgentState()
        for _ in range(3):
            sched = plan_schedule(transition, state, METRIC)
            assert sched.total_cost <= budget
            failed = [t for t in sched.ids if rng.random() >= 0.8]
            state = agent_update(state, sched, failed)
