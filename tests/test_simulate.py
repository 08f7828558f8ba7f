import ast
import inspect
from dataclasses import fields, replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regsched.simulate as simulate_module
import regsched.trace as trace_module
from helpers import FailingAt, counted, peak_mib, stable_failure_bundle, unshared_bundle
from regsched import (
    Rtw,
    ScenarioConfig,
    TransitionKind,
    active_faults,
    classify_transition,
    generate_chain,
    reg_all,
    run_many,
    run_scenario,
    run_scenario_with_trace,
    run_tests,
    windows_for,
)
from regsched.errors import ConfigurationError
from regsched.histio import dumps_canonical, report_to_csv, report_to_dict, serialize_history


def pure_mix(kind):
    return {kind: 1.0}


class TestConfigValidation:
    def test_counts_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="n_tests"):
            ScenarioConfig(seed=1, n_tests=0)

    def test_mix_must_sum_to_one(self):
        with pytest.raises(ConfigurationError, match="transition_mix"):
            ScenarioConfig(
                seed=1, transition_mix={TransitionKind.PERIODIC_BUILD: 0.5}
            )

    def test_fault_rate_bounds(self):
        with pytest.raises(ConfigurationError, match="fault_rate"):
            ScenarioConfig(seed=1, fault_rate=1.5)

    def test_fixed_policy_needs_value(self):
        with pytest.raises(ConfigurationError, match="window_value"):
            ScenarioConfig(seed=1, window_policy="fixed")

    def test_list_policy_needs_one_value_per_transition(self):
        with pytest.raises(ConfigurationError, match="window_values"):
            ScenarioConfig(
                seed=1, n_builds=5, window_policy="list", window_values=(1, 2)
            )

    @pytest.mark.parametrize(
        "policy, extra, field",
        [
            ("nightly", {"window_value": 40}, "window_value"),
            ("unbounded", {"window_value": 0}, "window_value"),
            ("list", {"window_value": 40, "window_values": [1, 2, 3, 4]}, "window_value"),
            ("sprint", {"window_values": [1, 2, 3, 4]}, "window_values"),
            ("fixed", {"window_value": 40, "window_values": [1, 2, 3, 4]}, "window_values"),
        ],
    )
    def test_window_field_the_policy_ignores_is_rejected(self, policy, extra, field):
        data = {"seed": 1, "n_builds": 5, "window_policy": policy, **extra}
        kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()}
        for make in (lambda: ScenarioConfig.from_dict(data), lambda: ScenarioConfig(**kwargs)):
            with pytest.raises(ConfigurationError) as exc:
                make()
            assert exc.value.field == field
            assert str(exc.value) == f"{field}: the {policy!r} policy does not read it"

    @pytest.mark.parametrize("policy", simulate_module.WINDOW_POLICIES)
    def test_unset_window_fields_pass_under_every_policy(self, policy):
        data = {"seed": 1, "n_builds": 3, "window_policy": policy,
                "window_value": None, "window_values": None}
        data.update({"fixed": {"window_value": 0}, "list": {"window_values": [1, None]}}
                    .get(policy, {}))
        assert ScenarioConfig.from_dict(data).window_policy == policy

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="window_policy"):
            ScenarioConfig(seed=1, window_policy="lunar")

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="config"):
            ScenarioConfig.from_dict({"seed": 1, "bogus": 2})

    def test_from_dict_requires_seed(self):
        with pytest.raises(ConfigurationError, match="seed"):
            ScenarioConfig.from_dict({})

    def test_from_dict_parses_slugged_mix(self):
        cfg = ScenarioConfig.from_dict(
            {"seed": 3, "transition_mix": {"periodic-build": 0.5, "defect-fix": 0.5}}
        )
        assert cfg.transition_mix[TransitionKind.DEFECT_FIX] == 0.5

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="transition_mix"):
            ScenarioConfig.from_dict({"seed": 3, "transition_mix": {"alien": 1.0}})

    def test_from_dict_reads_every_field(self):
        data = {
            "seed": 11,
            "n_builds": 4,
            "n_tests": 9,
            "n_stories": 3,
            "n_classes": 5,
            "transition_mix": {"periodic-build": 0.25, "defect-fix": 0.75},
            "window_policy": "list",
            "window_values": [4, None, 7],
            "fault_rate": 0.5,
            "strategy": "random-k",
            "strategy_params": {"k": 2},
            "metric": "coverage",
        }
        # A policy reads one window field; fixed reads the one list ignores.
        fixed = {"seed": 11, "window_policy": "fixed", "window_value": 9}
        assert set(data) | set(fixed) == {f.name for f in fields(ScenarioConfig)}
        assert ScenarioConfig.from_dict(fixed) == ScenarioConfig(
            seed=11, window_policy="fixed", window_value=9
        )
        assert ScenarioConfig.from_dict(data) == ScenarioConfig(
            seed=11,
            n_builds=4,
            n_tests=9,
            n_stories=3,
            n_classes=5,
            transition_mix={TransitionKind.PERIODIC_BUILD: 0.25, TransitionKind.DEFECT_FIX: 0.75},
            window_policy="list",
            window_values=(4, None, 7),
            fault_rate=0.5,
            strategy="random-k",
            strategy_params={"k": 2},
            metric="coverage",
        )


class TestGenerator:
    def test_single_build_chain_has_no_transitions(self):
        bundle = generate_chain(ScenarioConfig(seed=1, n_builds=1))
        assert len(bundle.chain) == 1
        assert windows_for(ScenarioConfig(seed=1, n_builds=1), bundle) == ()

    def test_pure_periodic_changes_nothing_but_timestamps(self):
        cfg = ScenarioConfig(
            seed=2, n_builds=6, transition_mix=pure_mix(TransitionKind.PERIODIC_BUILD)
        )
        bundle = generate_chain(cfg)
        for b_prev, b_next in bundle.chain.pairs():
            assert b_prev.program is b_next.program
            assert b_prev.test_ids() == b_next.test_ids()
            assert b_prev.story_ids() == b_next.story_ids()
            assert b_prev.ready_at < b_next.ready_at

    def test_same_seed_reproduces_identical_histories(self):
        cfg = ScenarioConfig(seed=77, n_builds=12)
        first = dumps_canonical(serialize_history(generate_chain(cfg)))
        second = dumps_canonical(serialize_history(generate_chain(cfg)))
        assert first == second

    def test_different_seeds_differ(self):
        one = dumps_canonical(serialize_history(generate_chain(ScenarioConfig(seed=1))))
        two = dumps_canonical(serialize_history(generate_chain(ScenarioConfig(seed=2))))
        assert one != two

    @pytest.mark.parametrize(
        "kind",
        [
            TransitionKind.NEW_FEATURE,
            TransitionKind.DEFECT_FIX,
            TransitionKind.TECH_DEBT,
            TransitionKind.FEATURE_WITHOUT_TEST,
        ],
    )
    def test_sampled_kind_classifies_back(self, kind):
        cfg = ScenarioConfig(seed=13, n_builds=8, transition_mix=pure_mix(kind))
        bundle = generate_chain(cfg)
        for b_prev, b_next in bundle.chain.pairs():
            assert classify_transition(b_prev, b_next) is kind

    def test_mixed_chain_always_classifies(self):
        bundle = generate_chain(ScenarioConfig(seed=21, n_builds=25))
        kinds = {classify_transition(*pair) for pair in bundle.chain.pairs()}
        assert kinds <= set(TransitionKind)

    def test_faults_diverge_exactly_at_birth(self):
        bundle = generate_chain(ScenarioConfig(seed=31, n_builds=15, fault_rate=0.6))
        assert bundle.faults, "expected some injected faults at this seed"
        builds = {b.index: b for b in bundle.chain.builds}
        for fault_id, born_at in bundle.fault_births.items():
            b_prev, b_next = builds[born_at - 1], builds[born_at]
            for test_id in bundle.faults[fault_id]:
                assert (
                    b_prev.program.behavior[test_id] != b_next.program.behavior[test_id]
                )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 30))
    def test_builds_share_an_unchanged_test_set(self, seed, n_builds):
        bundle = generate_chain(ScenarioConfig(seed=seed, n_builds=n_builds, n_tests=12))
        for p, n in bundle.chain.pairs():
            assert (p.tests is n.tests) == (p.test_ids() == n.test_ids())

    def test_coverage_references_only_living_tests(self):
        bundle = generate_chain(ScenarioConfig(seed=41, n_builds=20))
        ever = set()
        for b in bundle.chain.builds:
            ever |= b.test_ids()
        for tests in bundle.coverage.values():
            assert tests <= ever


class TestWindows:
    def test_fixed_policy(self):
        cfg = ScenarioConfig(seed=5, n_builds=4, window_policy="fixed", window_value=42)
        windows = windows_for(cfg, generate_chain(cfg))
        assert [w.budget() for w in windows] == [42, 42, 42]

    def test_unbounded_policy(self):
        cfg = ScenarioConfig(seed=5, n_builds=3, window_policy="unbounded")
        assert all(w.is_unbounded for w in windows_for(cfg, generate_chain(cfg)))

    def test_list_policy_supports_mixed_windows(self):
        cfg = ScenarioConfig(
            seed=5, n_builds=4, window_policy="list", window_values=(5, None, 20)
        )
        windows = windows_for(cfg, generate_chain(cfg))
        assert windows[0].budget() == 5
        assert windows[1].is_unbounded
        assert windows[2].budget() == 20

    def test_presets_scale_with_initial_suite(self):
        cfg_small = ScenarioConfig(seed=5, n_builds=3, window_policy="commit")
        cfg_large = ScenarioConfig(seed=5, n_builds=3, window_policy="release")
        bundle = generate_chain(cfg_small)
        small = windows_for(cfg_small, bundle)[0].budget()
        large = windows_for(cfg_large, bundle)[0].budget()
        total = sum(t.duration for t in bundle.chain.builds[0].tests)
        assert small < large
        assert large > total  # release preset exceeds one full suite pass


class TestRunScenario:
    def test_retest_all_unbounded_runs_every_candidate(self):
        cfg = ScenarioConfig(
            seed=8, n_builds=8, window_policy="unbounded", strategy="retest-all"
        )
        report, trace = run_scenario_with_trace(cfg)
        assert len(report.rows) == 7
        for row in report.rows:
            assert len(row.schedule) == row.candidate_count
            assert row.regall_match is True

    def test_zero_budget_starves_every_schedule(self):
        cfg = ScenarioConfig(
            seed=8, n_builds=6, window_policy="fixed", window_value=0, strategy="retecs"
        )
        report = run_scenario(cfg)
        for row in report.rows:
            assert row.schedule == ()
            assert row.q_value is None
        assert report.mean_q is None

    def test_makes_no_trace_record(self, monkeypatch):
        cfg = ScenarioConfig(seed=8, n_builds=8, strategy="retecs")
        expected = run_scenario(cfg)

        def no_record(*args):
            raise AssertionError("run_scenario made a trace record")

        monkeypatch.setattr(trace_module, "_snapshot", no_record)
        assert run_scenario(cfg) == expected

    def test_a_traced_run_keeps_no_step(self):
        # Both peaks hold the report; the traced run adds only the records.
        cfg = ScenarioConfig(
            seed=1, n_tests=200, n_builds=50, window_policy="unbounded", strategy="retest-all"
        )
        traced = peak_mib(lambda: run_scenario_with_trace(cfg))
        assert traced <= 1.2 * peak_mib(lambda: run_scenario(cfg))

    def test_rows_count_transitions(self):
        report = run_scenario(ScenarioConfig(seed=8, n_builds=10))
        assert len(report.rows) == 9

    def test_growing_budget_never_shrinks_any_schedule(self):
        # Paired runs identical except for the fixed window size.
        for strategy, params in (("retest-all", {}), ("random-k", {"k": 8})):
            counts = {}
            for budget in (20, 60):
                cfg = ScenarioConfig(
                    seed=10,
                    n_builds=10,
                    window_policy="fixed",
                    window_value=budget,
                    strategy=strategy,
                    strategy_params=params,
                )
                counts[budget] = [len(r.schedule) for r in run_scenario(cfg).rows]
            assert all(a <= b for a, b in zip(counts[20], counts[60]))

    def test_unknown_strategy_rejected(self):
        cfg = ScenarioConfig(seed=1, strategy="psychic")
        with pytest.raises(ConfigurationError):
            run_scenario(cfg)

    def test_unknown_metric_rejected(self):
        cfg = ScenarioConfig(seed=1, metric="vibes")
        with pytest.raises(ConfigurationError):
            run_scenario(cfg)

    def test_fault_recall_none_without_faults(self):
        cfg = ScenarioConfig(
            seed=3,
            n_builds=5,
            fault_rate=0.0,
            transition_mix=pure_mix(TransitionKind.PERIODIC_BUILD),
        )
        report = run_scenario(cfg)
        assert report.fault_recall is None

    def test_fault_bookkeeping_feeds_rows(self):
        cfg = ScenarioConfig(
            seed=19,
            n_builds=12,
            fault_rate=0.8,
            window_policy="unbounded",
            strategy="retest-all",
        )
        report = run_scenario(cfg)
        bundle = generate_chain(cfg)
        assert bundle.faults
        # Retest-all under unbounded windows executes every candidate, so
        # every fault whose detectors are shared tests gets detected.
        assert report.fault_recall == 1.0
        assert all(not row.undetected_faults for row in report.rows)


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self):
        cfg = ScenarioConfig(seed=123, n_builds=10, strategy="retecs")
        first = run_scenario(cfg)
        second = run_scenario(cfg)
        assert dumps_canonical(report_to_dict(first)) == dumps_canonical(report_to_dict(second))
        assert report_to_csv(first) == report_to_csv(second)


def counting_generator(monkeypatch):
    """Patch ``generate_chain`` to keep each (config, bundle) it makes."""
    made = []

    def generate(cfg):
        made.append((cfg, generate_chain(cfg)))
        return made[-1][1]

    monkeypatch.setattr(simulate_module, "generate_chain", generate)
    return made


A = ScenarioConfig(seed=3, n_builds=8, n_tests=15, fault_rate=0.5, strategy="retecs")
B = replace(A, seed=4)
PERIODIC_HEAVY = {TransitionKind.PERIODIC_BUILD: 0.6, TransitionKind.NEW_FEATURE: 0.4}


class TestRunMany:
    @pytest.mark.parametrize(
        "cfgs, chains",
        [
            pytest.param(
                [
                    A,
                    replace(A, strategy="depgraph", window_policy="sprint"),
                    replace(A, strategy="random-k", strategy_params={"k": 4}),
                    replace(A, strategy="retest-all", window_policy="unbounded", metric="coverage"),
                    replace(A, window_policy="fixed", window_value=0),
                ],
                1,
                id="one-chain-strategies-and-windows",
            ),
            pytest.param([A, B, A], 3, id="interleaved-a-b-a"),
            pytest.param([A, replace(A, transition_mix=PERIODIC_HEAVY)], 2, id="only-mix-differs"),
            pytest.param([A, replace(A, fault_rate=0.1)], 2, id="only-fault-rate-differs"),
            pytest.param([A, replace(A, transition_mix=dict(A.transition_mix))], 1, id="equal-mix"),
        ],
    )
    def test_equals_one_run_per_config(self, monkeypatch, cfgs, chains):
        expected = [run_scenario(c) for c in cfgs]
        made = counting_generator(monkeypatch)
        assert run_many(cfgs) == expected
        assert len(made) == chains
        for cfg, bundle in made:  # the shared bundle is read, never changed
            assert bundle == generate_chain(cfg)

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([1, 2]),
                st.sampled_from([0.0, 0.6]),
                st.sampled_from(["retest-all", "random-k", "retecs", "depgraph"]),
                st.sampled_from(["nightly", "commit", "unbounded"]),
            ),
            max_size=5,
        )
    )
    def test_mixed_lists_equal_one_run_per_config(self, picks):
        cfgs = [
            ScenarioConfig(
                seed=seed, n_builds=6, n_tests=12, fault_rate=rate, strategy=strategy,
                strategy_params={"k": 5} if strategy == "random-k" else {}, window_policy=policy,
            )
            for seed, rate, strategy, policy in picks
        ]
        assert run_many(cfgs) == [run_scenario(c) for c in cfgs]

    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from([A.transition_mix, PERIODIC_HEAVY]),
        st.lists(
            st.tuples(
                st.sampled_from(["retest-all", "random-k", "retecs", "depgraph"]),
                st.sampled_from(["unbounded", "nightly", "fixed"]),
                st.sampled_from(["apfd", "fault-count", "coverage"]),
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def test_one_chain_with_varied_windows_metrics_and_strategies(self, mix, picks):
        cfgs = [
            replace(
                A, transition_mix=mix, strategy=strategy, metric=metric,
                strategy_params={"k": 4} if strategy == "random-k" else {},
                window_policy=policy, window_value=0 if policy == "fixed" else None,
            )
            for strategy, policy, metric in picks
        ]
        assert run_many(cfgs) == [run_scenario(c) for c in cfgs]

    def test_a_failing_config_fails_the_batch_as_its_own_run_does(self):
        bad = replace(A, strategy="no-such-strategy")
        with pytest.raises(ConfigurationError) as alone:
            run_scenario(bad)
        with pytest.raises(ConfigurationError) as batched:
            run_many([A, bad, A])
        assert str(batched.value) == str(alone.value)

    def test_chain_fields_are_the_fields_generate_chain_reads(self):
        tree = ast.parse(inspect.getsource(generate_chain))
        read = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "cfg"
        }
        names = SimpleNamespace(**{f.name: f.name for f in fields(ScenarioConfig)})
        assert set(simulate_module._CHAIN_FIELDS(names)) == read


def chain_adaptive(seed=1, **fields):
    """The benchmark's chain-adaptive configs (retecs, depgraph, random-k; nightly), smaller."""
    base = ScenarioConfig(seed=seed, window_policy="nightly", **fields)
    return [
        replace(base, strategy="retecs", metric="apfd"),
        replace(base, strategy="depgraph"),
        replace(base, strategy="random-k", strategy_params={"k": 60}),
    ]


def canonical(reports):
    return [dumps_canonical(report_to_dict(r)) for r in reports]


class TestDeriveOnce:
    """A run_many group derives each pair once; the sharing only skips work."""

    def test_each_pair_is_derived_once_for_every_config(self, monkeypatch):
        cfgs = chain_adaptive(n_tests=60, n_builds=20)
        held = [(p.tests, n.tests) for p, n in generate_chain(cfgs[0]).chain.pairs()]
        set_runs = 1 + sum(a is not c or b is not d for (a, b), (c, d) in zip(held, held[1:]))
        candidates = counted(monkeypatch, trace_module, "ordered_candidates")
        kinds = counted(monkeypatch, simulate_module, "classify_transition")
        contexts = counted(monkeypatch, simulate_module, "MetricContext")
        run_many(cfgs)
        assert len(candidates) == set_runs < len(held)
        assert len(kinds) == len(contexts) == len(held)

    @pytest.mark.parametrize("mix", [A.transition_mix, PERIODIC_HEAVY], ids=["default", "periodic"])
    def test_equal_copies_of_every_set_and_program_give_the_same_bytes(self, monkeypatch, mix):
        cfgs = chain_adaptive(n_tests=30, n_builds=12, transition_mix=mix)
        base = cfgs[0]
        cfgs += [
            replace(base, strategy="retest-all", window_policy="unbounded", metric="coverage"),
            replace(base, strategy_params={"engine": "exact"}, window_policy="sprint"),
            replace(base, strategy="depgraph", window_policy="fixed", window_value=0),
        ]
        expected = canonical(run_many(cfgs))
        copied = []
        monkeypatch.setattr(
            simulate_module,
            "generate_chain",
            lambda cfg: copied.append(unshared_bundle(generate_chain(cfg))) or copied[-1],
        )
        assert canonical(run_many(cfgs)) == expected
        for bundle in copied:
            for b_prev, b_next in bundle.chain.pairs():
                assert b_prev.tests is not b_next.tests and b_prev.program is not b_next.program

    def test_the_first_error_in_pair_then_config_order_is_raised(self, monkeypatch):
        monkeypatch.setattr(
            simulate_module, "make_strategy", lambda name, kw, **_: FailingAt(name, kw["at"])
        )
        cfgs = [
            replace(A, strategy="first", strategy_params={"at": 5}),
            replace(A, strategy="second", strategy_params={"at": 3}),
            replace(A, strategy="third", strategy_params={"at": 3}),
        ]
        with pytest.raises(RuntimeError, match="^second$"):
            run_many(cfgs)
        # Every strategy is built before the pass: a config that cannot be
        # built fails the group before any pair runs.
        cfgs[2] = replace(A, metric="no-such-metric")
        with pytest.raises(ConfigurationError, match="no-such-metric"):
            run_many(cfgs)


class TestStableFailureBundle:
    def test_shape(self):
        bundle = stable_failure_bundle(n_tests=10, n_cycles=5, n_flaky=2)
        assert len(bundle.chain) == 6
        assert len(bundle.faults) == 5 * 2
        for b_prev, b_next in bundle.chain.pairs():
            assert classify_transition(b_prev, b_next) is TransitionKind.DEFECT_FIX

    def test_faults_born_each_cycle(self):
        bundle = stable_failure_bundle(n_tests=6, n_cycles=3, n_flaky=1)
        for i in range(2, 5):
            assert len(active_faults(bundle, i)) == 1


class TestRegAllOncePerPair:
    """A group runs ``reg_all`` once per pair, and only where some window is unbounded."""

    @staticmethod
    def expected_matches(bundle, report):
        """Each row's ``regall_match``, recomputed row by row from the definition."""
        unbounded = Rtw.unbounded()
        matches = []
        for (p, n), row in zip(bundle.chain.pairs(), report.rows):
            full = reg_all(p, n, unbounded).verdicts
            matches.append(tuple(sorted(run_tests(p, n, row.schedule))) == full)
        return matches

    def test_three_unbounded_configs_share_each_pairs_reg_all(self, monkeypatch):
        base = ScenarioConfig(seed=1, n_tests=60, n_builds=20, window_policy="unbounded")
        cfgs = [
            replace(base, strategy="retest-all"),
            replace(base, strategy="retecs"),
            replace(base, strategy="random-k", strategy_params={"k": 30}),
        ]
        alone = canonical([run_scenario(c) for c in cfgs])
        calls = counted(monkeypatch, simulate_module, "reg_all")
        reports = run_many(cfgs)
        assert len(calls) == 19
        assert canonical(reports) == alone
        bundle = generate_chain(base)
        for report in reports:
            assert [r.regall_match for r in report.rows] == self.expected_matches(bundle, report)

    def test_pairs_with_no_unbounded_window_run_no_reg_all(self, monkeypatch):
        base = ScenarioConfig(seed=1, n_tests=30, n_builds=9, window_policy="fixed", window_value=40)
        gaps = (None, 40, 40, None, 40, 40, 40, None)
        cfgs = [base, replace(base, window_policy="list", window_value=None, window_values=gaps)]
        calls = counted(monkeypatch, simulate_module, "reg_all")
        bounded, listed = run_many(cfgs)
        assert len(calls) == gaps.count(None)
        assert all(r.regall_match is None for r in bounded.rows)
        bundle = generate_chain(base)
        expected = self.expected_matches(bundle, listed)
        assert [r.regall_match for r in listed.rows] == [
            None if w is not None else m for w, m in zip(gaps, expected)
        ]
