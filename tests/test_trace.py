import dataclasses

import pytest

import regsched.trace as trace_module
from helpers import FailingAt, build, chain_of, counted, peak_mib, tc
from regsched import (
    BuildChain,
    MetricContext,
    RetestAllStrategy,
    Rtw,
    Schedule,
    Trace,
    TraceTuple,
    Transition,
    TransitionKind,
    TransitionStep,
    ScenarioConfig,
    apfd_metric,
    check_completeness,
    failed_ids,
    fault_count_metric,
    generate_chain,
    make_strategy,
    record_trace,
    replay_trace,
    run_side_by_side,
    run_tests,
    run_transitions,
    trace_from_dict,
    trace_to_dict,
)
from regsched.errors import (
    HistoryFormatError,
    InfeasibleScheduleError,
    TraceDivergenceError,
    UndefinedMetricError,
)

METRIC = fault_count_metric()
UNBOUNDED = Rtw.unbounded()


def diverging_chain(n_builds=3, shared=("a", "b", "c"), diverge_at=None):
    """A chain over a fixed test set, optionally flipping one outcome."""
    diverge_at = diverge_at or {}
    builds = []
    for i in range(1, n_builds + 1):
        overrides = {t: f"flip-{i}" for t in diverge_at.get(i, ())}
        builds.append(
            build(i, [tc(t) for t in shared], program_id=i, behavior_overrides=overrides)
        )
    return chain_of(*builds)


class RogueStrategy:
    """Deliberately emits an over-budget schedule."""

    name = "rogue"

    def plan(self, transition):
        return Schedule.from_ids(transition.durations, transition.durations)

    def observe(self, step):
        pass


class EscapingStrategy:
    """Schedules a test that is not in the candidate set."""

    name = "escaping"

    def plan(self, transition):
        return Schedule(("not-a-candidate",), 0)

    def observe(self, step):
        pass


class TestTraceTypes:
    def test_schedule_must_stay_inside_snapshot(self):
        with pytest.raises(ValueError):
            TraceTuple(1, 1, (), ("a",), 10, None, ("b",))

    def test_indices_must_be_contiguous(self):
        record = TraceTuple(2, 1, (), ("a",), 10, None, ())
        with pytest.raises(ValueError):
            Trace((record,))

    def test_unbounded_flag(self):
        record = TraceTuple(1, 1, (), ("a",), None, None, ())
        assert record.is_unbounded

    def test_serialization_round_trip(self):
        trace = record_trace(
            RetestAllStrategy(), diverging_chain(3), [UNBOUNDED, Rtw.of_budget(7)], METRIC
        )
        assert trace_from_dict(trace_to_dict(trace)) == trace
        assert trace_to_dict(trace)["tuples"][1]["delta_tau"] == "inf"

    def test_malformed_dict_rejected(self):
        with pytest.raises(HistoryFormatError):
            trace_from_dict({"rows": []})


class TestRecord:
    def test_single_build_chain_records_one_base_tuple(self):
        trace = record_trace(RetestAllStrategy(), diverging_chain(1), [], METRIC)
        assert len(trace) == 1
        base = trace.tuples[0]
        assert base.schedule == ()
        assert base.delta_tau == 0
        assert base.q_value is None

    def test_retest_all_unbounded_records_full_candidate_set(self):
        chain = diverging_chain(2)
        trace = record_trace(RetestAllStrategy(), chain, [UNBOUNDED], METRIC)
        assert trace.tuples[1].schedule == ("a", "b", "c")
        assert trace.tuples[1].is_unbounded

    def test_snapshot_fields_mirror_the_build(self):
        chain = diverging_chain(2)
        trace = record_trace(RetestAllStrategy(), chain, [UNBOUNDED], METRIC)
        record = trace.tuples[1]
        b2 = chain.builds[1]
        assert record.program_id == b2.program.id
        assert record.test_ids == tuple(sorted(b2.test_ids()))
        assert record.spec_ids == tuple(sorted(b2.story_ids()))

    def test_traced_run_equals_direct_run(self):
        # Oracle: drive a fresh identical strategy through the chain by
        # hand and compare schedules step for step.
        cfg = ScenarioConfig(seed=42, n_builds=10)
        bundle = generate_chain(cfg)
        windows = [Rtw.of_budget(60)] * (len(bundle.chain) - 1)
        metric = fault_count_metric()

        def fresh():
            return make_strategy("retecs", {}, metric=metric)

        trace = record_trace(fresh(), bundle.chain, windows, metric)

        direct = fresh()
        manual = []
        for (b_prev, b_next), window in zip(bundle.chain.pairs(), windows):
            transition = Transition.of(b_prev, b_next, window)
            sched = direct.plan(transition)
            verdicts = run_tests(b_prev, b_next, sched.ids)
            try:
                q = metric.evaluate(sched.ids, MetricContext.from_failures(failed_ids(verdicts)))
            except UndefinedMetricError:
                q = None
            direct.observe(TransitionStep(transition, sched, verdicts, q))
            manual.append(sched.ids)
        assert [t.schedule for t in trace.tuples[1:]] == manual

    def test_over_budget_schedule_is_rejected_naming_the_build(self):
        chain = diverging_chain(3)
        with pytest.raises(InfeasibleScheduleError) as exc:
            record_trace(RogueStrategy(), chain, [Rtw.of_budget(1), Rtw.of_budget(1)], METRIC)
        assert exc.value.build_index == 2

    def test_out_of_candidate_schedule_is_rejected(self):
        chain = diverging_chain(2)
        with pytest.raises(InfeasibleScheduleError):
            record_trace(EscapingStrategy(), chain, [UNBOUNDED], METRIC)

    def test_window_count_must_match_transitions(self):
        with pytest.raises(ValueError):
            record_trace(RetestAllStrategy(), diverging_chain(3), [UNBOUNDED], METRIC)

    def test_no_tuple_overruns_its_budget(self):
        cfg = ScenarioConfig(seed=9, n_builds=8)
        bundle = generate_chain(cfg)
        windows = [Rtw.of_budget(30 + 10 * i) for i in range(len(bundle.chain) - 1)]
        trace = record_trace(
            make_strategy("retecs", {}, metric=METRIC), bundle.chain, windows, METRIC
        )
        for record in trace.tuples[1:]:
            if record.delta_tau is None:
                continue
            durations = {
                t.id: t.duration for t in bundle.chain.build(record.index).tests
            }
            assert sum(durations[i] for i in record.schedule) <= record.delta_tau


def _shift_program_id(record):
    return dataclasses.replace(record, program_id=record.program_id + 100)


def _extra_spec_id(record):
    return dataclasses.replace(record, spec_ids=(*record.spec_ids, "zzz"))


def _extra_test_id(record):
    return dataclasses.replace(record, test_ids=(*record.test_ids, "zzz"))


class TestReplay:
    def test_empty_trace_on_empty_chain(self):
        assert replay_trace(Trace(()), BuildChain(builds=())) == ()

    def test_replaying_own_chain_reproduces_schedules(self):
        chain = diverging_chain(4, diverge_at={3: ("b",)})
        windows = [UNBOUNDED] * 3
        trace = record_trace(RetestAllStrategy(), chain, windows, METRIC)
        steps = replay_trace(trace, chain)
        assert [s.schedule.ids for s in steps] == [t.schedule for t in trace.tuples]

    def test_single_point_behavior_change_flips_one_verdict(self):
        chain = diverging_chain(2)
        trace = record_trace(RetestAllStrategy(), chain, [UNBOUNDED], METRIC)
        baseline = replay_trace(trace, chain)

        b2 = chain.builds[1]
        altered_behavior = dict(b2.program.behavior)
        altered_behavior["b"] = "ALTERED"
        altered_chain = BuildChain(
            builds=(
                chain.builds[0],
                dataclasses.replace(
                    b2, program=dataclasses.replace(b2.program, behavior=altered_behavior)
                ),
            ),
            iterations=chain.iterations,
        )
        perturbed = replay_trace(trace, altered_chain)
        assert [s.schedule.ids for s in perturbed] == [s.schedule.ids for s in baseline]
        flips = [
            (a.test_id, a.consistent, b.consistent)
            for a, b in zip(baseline[1].verdicts, perturbed[1].verdicts)
            if a.consistent != b.consistent
        ]
        assert flips == [("b", True, False)]

    @pytest.mark.parametrize(
        "field, tamper",
        [
            ("program_id", _shift_program_id),
            ("spec_ids", _extra_spec_id),
            ("test_ids", _extra_test_id),
        ],
        ids=["program-id", "spec-ids", "test-ids"],
    )
    def test_snapshot_divergence_names_build_and_field(self, field, tamper):
        chain = diverging_chain(2)
        trace = record_trace(RetestAllStrategy(), chain, [UNBOUNDED], METRIC)
        tampered = tamper(trace.tuples[1])
        with pytest.raises(TraceDivergenceError) as exc:
            replay_trace(Trace((trace.tuples[0], tampered)), chain)
        assert (exc.value.build_index, exc.value.field) == (2, field)

    @pytest.mark.parametrize(
        "schedule, delta_tau, field",
        [(("a", "x"), None, "schedule"), (("a", "b"), 9, "delta_tau")],
        ids=["test-new-in-build-2", "cost-over-delta-tau"],
    )
    def test_tampered_schedule_breaks_the_contract(self, schedule, delta_tau, field):
        chain = chain_of(
            build(1, [tc(t) for t in ("a", "b")], program_id=1),
            build(2, [tc(t) for t in ("a", "b", "x")], program_id=2),
        )
        trace = record_trace(RetestAllStrategy(), chain, [UNBOUNDED], METRIC)
        tampered = dataclasses.replace(trace.tuples[1], schedule=schedule, delta_tau=delta_tau)
        with pytest.raises(TraceDivergenceError) as exc:
            replay_trace(Trace((trace.tuples[0], tampered)), chain)
        assert (exc.value.build_index, exc.value.field) == (2, field)

    def test_length_mismatch_is_divergence(self):
        chain = diverging_chain(2)
        trace = record_trace(RetestAllStrategy(), chain, [UNBOUNDED], METRIC)
        with pytest.raises(TraceDivergenceError):
            replay_trace(trace, diverging_chain(3))


class CountingStrategy:
    """Counts the plans of a wrapped strategy."""

    name = "counting"

    def __init__(self, inner):
        self.inner = inner
        self.plans = 0

    def plan(self, transition):
        self.plans += 1
        return self.inner.plan(transition)

    def observe(self, step):
        self.inner.observe(step)


def seeded_run(name, params):
    """A fresh-strategy factory, chain and windows: seed 5, 10 builds, window 50."""
    cfg = ScenarioConfig(seed=5, n_builds=10)
    bundle = generate_chain(cfg)
    windows = [Rtw.of_budget(50)] * (len(bundle.chain) - 1)

    def fresh():
        return make_strategy(name, params, graph=bundle.graph, metric=METRIC, seed=cfg.seed)

    return fresh, bundle.chain, windows


def _reverse_schedule(record):
    return dataclasses.replace(record, schedule=tuple(reversed(record.schedule)))


def _shift_q_value(record):
    q_value = record.q_value
    return dataclasses.replace(record, q_value=None if q_value is None else q_value + 1)


def _unbound_delta_tau(record):
    return dataclasses.replace(record, delta_tau=None)


class TestCompleteness:
    def test_retest_all_over_three_builds_verifies(self):
        chain = diverging_chain(3, diverge_at={2: ("a",)})
        report = check_completeness(
            RetestAllStrategy(), chain, [UNBOUNDED, UNBOUNDED], METRIC
        )
        assert report.all_verified
        assert [b.build_index for b in report.builds] == [1, 2, 3]

    @pytest.mark.parametrize("name,params", [
        ("retecs", {}),
        ("depgraph", {}),
        ("random-k", {"k": 3}),
    ])
    def test_seeded_strategies_verify(self, name, params):
        fresh, chain, windows = seeded_run(name, params)
        assert record_trace(fresh(), chain, windows, METRIC) == record_trace(
            fresh(), chain, windows, METRIC
        )
        report = check_completeness(fresh(), chain, windows, METRIC)
        assert report.all_verified
        assert len(report.builds) == len(chain)

    def test_each_transition_is_planned_once(self):
        strategy = CountingStrategy(RetestAllStrategy())
        report = check_completeness(strategy, diverging_chain(4), [UNBOUNDED] * 3, METRIC)
        assert report.all_verified
        assert strategy.plans == 3

    def test_empty_chain_verifies_no_build(self):
        report = check_completeness(RetestAllStrategy(), BuildChain(builds=()), [], METRIC)
        assert report.builds == ()
        assert report.all_verified

    def test_keeps_no_step_or_record(self):
        cfg = ScenarioConfig(
            seed=1, n_tests=200, n_builds=50, window_policy="unbounded", strategy="retest-all"
        )
        chain = generate_chain(cfg).chain
        windows = [UNBOUNDED] * (len(chain) - 1)
        checked = peak_mib(lambda: check_completeness(RetestAllStrategy(), chain, windows, METRIC))
        assert checked <= peak_mib(lambda: record_trace(RetestAllStrategy(), chain, windows, METRIC))

    @pytest.mark.parametrize("n_builds", [1, 3])
    def test_a_chain_not_starting_at_build_1_fails_as_recording_does(self, n_builds):
        chain = chain_of(*(build(i, [tc("a"), tc("b")]) for i in range(2, n_builds + 2)))
        windows = [UNBOUNDED] * (n_builds - 1)
        with pytest.raises(ValueError) as recorded:
            record_trace(RetestAllStrategy(), chain, windows, METRIC)
        with pytest.raises(ValueError) as checked:
            check_completeness(RetestAllStrategy(), chain, windows, METRIC)
        assert str(checked.value) == str(recorded.value)
        assert "must run 1..n" in str(checked.value)

    def test_metric_undefined_on_both_sides_verifies(self):
        # No test ever fails, so APFD has no fault to detect on any build.
        chain = diverging_chain(3)
        metric = apfd_metric()
        trace = record_trace(RetestAllStrategy(), chain, [UNBOUNDED] * 2, metric)
        assert [t.q_value for t in trace.tuples] == [None, None, None]
        assert check_completeness(RetestAllStrategy(), chain, [UNBOUNDED] * 2, metric).all_verified

    @pytest.mark.parametrize(
        "corrupt, expected",
        [
            (_reverse_schedule, lambda r: ("schedule", "verdicts") if len(r.schedule) > 1 else ()),
            (_shift_q_value, lambda r: () if r.q_value is None else ("q_value",)),
            (_unbound_delta_tau, lambda r: () if r.delta_tau is None else ("delta_tau",)),
            # A corrupted snapshot is a divergence the replay raises at build 1.
            (_shift_program_id, "program_id"),
            (_extra_spec_id, "spec_ids"),
            (_extra_test_id, "test_ids"),
        ],
        ids=[
            "schedule-reversed", "q-value-shifted", "delta-tau-unbounded",
            "program-id-shifted", "spec-id-added", "test-id-added",
        ],
    )
    def test_a_recorder_bug_fails_each_build_it_touches(self, monkeypatch, corrupt, expected):
        fresh, chain, windows = seeded_run("retecs", {})
        honest = record_trace(fresh(), chain, windows, METRIC)
        snapshot = trace_module._snapshot
        monkeypatch.setattr(trace_module, "_snapshot", lambda *args: corrupt(snapshot(*args)))
        if isinstance(expected, str):
            with pytest.raises(TraceDivergenceError) as exc:
                check_completeness(fresh(), chain, windows, METRIC)
            assert (exc.value.build_index, exc.value.field) == (1, expected)
            return
        report = check_completeness(fresh(), chain, windows, METRIC)
        assert not report.all_verified
        assert [b.mismatches for b in report.builds] == [expected(r) for r in honest.tuples]
        assert all(b.ok == (b.mismatches == ()) for b in report.builds)


def side_by_side_runs():
    """A periodic-heavy chain, and fresh runs of every built-in strategy under varied windows."""
    mix = {TransitionKind.PERIODIC_BUILD: 0.6, TransitionKind.NEW_FEATURE: 0.4}
    bundle = generate_chain(ScenarioConfig(seed=5, n_builds=12, transition_mix=mix))
    n = len(bundle.chain) - 1
    picks = [
        ("retecs", {}, [Rtw.of_budget(50)] * n),
        ("depgraph", {}, [UNBOUNDED] * n),
        ("random-k", {"k": 4}, [Rtw.of_budget(0)] * n),
        ("retest-all", {}, [Rtw.of_budget(20 + 5 * i) for i in range(n)]),
    ]

    def fresh():
        return [
            (make_strategy(name, kw, graph=bundle.graph, metric=METRIC, seed=5), windows, METRIC)
            for name, kw, windows in picks
        ]

    return bundle.chain, fresh


class TestSideBySide:
    def test_each_run_steps_as_it_would_alone(self):
        chain, fresh = side_by_side_runs()
        alone = [tuple(run_transitions(s, chain, w, m)) for s, w, m in fresh()]
        assert list(zip(*run_side_by_side(chain, fresh()))) == alone

    def test_a_pair_is_derived_once_and_kept_while_its_test_sets_are(self, monkeypatch):
        chain, fresh = side_by_side_runs()
        derived = counted(monkeypatch, trace_module, "ordered_candidates")
        last = None
        for steps in run_side_by_side(chain, fresh()):
            first = steps[0].transition
            for step in steps:
                assert step.transition.candidates is first.candidates
                assert step.transition.durations is first.durations
            same_sets = last is not None and (
                last.b_prev.tests is first.b_prev.tests and last.b_next.tests is first.b_next.tests
            )
            assert (last is not None and first.candidates is last.candidates) == same_sets
            assert any(n is first.b_next for _, n in derived) != same_sets
            last = first
        assert len(derived) < len(chain) - 1

    def test_errors_come_in_pair_then_run_order(self):
        chain = diverging_chain(5)
        windows = [UNBOUNDED] * 4
        fail_at = {"a": 5, "b": 3, "c": 3}
        runs = [(FailingAt(label, at), windows, METRIC) for label, at in fail_at.items()]
        with pytest.raises(RuntimeError, match="^b$"):
            list(run_side_by_side(chain, runs))

    def test_a_run_with_the_wrong_window_count_is_rejected_as_alone(self):
        chain = diverging_chain(3)
        with pytest.raises(ValueError) as alone:
            list(run_transitions(RetestAllStrategy(), chain, [UNBOUNDED], METRIC))
        runs = [
            (RetestAllStrategy(), [UNBOUNDED] * 2, METRIC),
            (RetestAllStrategy(), [UNBOUNDED], METRIC),
        ]
        with pytest.raises(ValueError) as together:
            list(run_side_by_side(chain, runs))
        assert str(together.value) == str(alone.value)
