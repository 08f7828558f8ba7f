"""Acceptance suite: one test per criterion, oracle-checked at desk scale.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion. Every expected value is either computed by an independent
oracle inside the test (exhaustive enumeration, path walking, paired
runs) or frozen after being derived that way.
"""

import random
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import permutations

from helpers import (
    affected_oracle,
    chain_of,
    min_cover_oracle,
    stable_failure_bundle,
    tc,
    two_builds,
)
from regsched import (
    MetricContext,
    QualityMetric,
    RetestAllStrategy,
    Rtw,
    ScenarioConfig,
    apfd,
    apfd_metric,
    check_completeness,
    fault_count_metric,
    generate_chain,
    make_strategy,
    record_trace,
    reg_all,
    replay_trace,
    rtm_minimize,
    rtp_prioritize,
    run_many,
    run_scenario,
    scope,
    scope_bruteforce,
    ttcp,
)
from regsched.histio import dumps_canonical, report_to_csv, report_to_dict
from regsched.simulate import scenario_eval_context

H8 = sum(1 / k for k in range(1, 9))  # harmonic bound for 8 requirements


def cost_suite(rng, n):
    return [tc(f"t{i:02d}", exectime=rng.randint(1, 20), setup=0) for i in range(n)]


def test_c01_scope_matches_bruteforce_on_500_instances():
    started = time.perf_counter()
    rng = random.Random(20_240_001)
    for _ in range(500):
        tests = cost_suite(rng, rng.randint(0, 12))
        total = sum(t.duration for t in tests)
        window = Rtw.of_budget(rng.randint(0, max(total, 1)))
        assert scope(tests, window).count == scope_bruteforce(tests, window).count
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"500 oracle comparisons took {elapsed:.2f}s"


def test_c02_scope_is_monotone_and_saturates():
    rng = random.Random(20_240_002)
    for _ in range(200):
        tests = cost_suite(rng, rng.randint(1, 12))
        total = sum(t.duration for t in tests)
        small = rng.randint(0, total)
        large = rng.randint(small + 1, total + 30)
        assert scope(tests, Rtw.of_budget(small)).count <= scope(
            tests, Rtw.of_budget(large)
        ).count
        slack = rng.randint(0, 20)
        assert scope(tests, Rtw.of_budget(total + slack)).count == len(tests)


def test_c03_full_overlap_comparison_matches_enumeration_oracle():
    rng = random.Random(20_240_003)
    unbounded = Rtw.unbounded()
    zeros = ones = 0
    for _ in range(200):
        shared = [f"t{i}" for i in range(rng.randint(0, 10))]
        diverge = [t for t in shared if rng.random() < 0.25]
        b1, b2 = two_builds(shared=[tc(t) for t in shared], diverge=diverge)
        report = reg_all(b1, b2, unbounded)
        oracle_consistent = all(
            b1.program.behavior[t] == b2.program.behavior[t] for t in shared
        )
        assert report.result == (1 if oracle_consistent else 0)
        assert report.result == (0 if diverge else 1)
        zeros += report.result == 0
        ones += report.result == 1
    assert zeros and ones, "divergence injection should produce both outcomes"


def test_c04_two_build_unbounded_retest_all_collapses_to_full_overlap():
    shared = [tc("a"), tc("b"), tc("c"), tc("d")]
    b1, b2 = two_builds(shared=shared, prev_only=[tc("p")], next_only=[tc("n")],
                        diverge=["c"])
    chain = chain_of(b1, b2)
    window = Rtw.unbounded()
    trace = record_trace(RetestAllStrategy(), chain, [window], fault_count_metric())
    executed = set(trace.tuples[1].schedule)
    assert executed == {t.id for t in shared} == (b1.test_ids() & b2.test_ids())
    steps = replay_trace(trace, chain)
    reference = reg_all(b1, b2, window)
    assert sorted(steps[1].verdicts, key=lambda v: v.test_id) == list(reference.verdicts)
    assert reference.result == 0


def test_c05_minimization_exact_is_minimal_and_greedy_is_bounded():
    rng = random.Random(20_240_005)
    for _ in range(150):
        n_tests = rng.randint(1, 15)
        n_reqs = rng.randint(0, 8)
        ids = [f"t{i:02d}" for i in range(n_tests)]
        coverage = {
            f"r{j}": frozenset(rng.sample(ids, rng.randint(1, n_tests)))
            for j in range(n_reqs)
        }
        optimum = min_cover_oracle(coverage)
        exact = rtm_minimize(ids, coverage, engine="exact")
        assert len(exact) == optimum
        assert all(tests & exact for tests in coverage.values())
        greedy = rtm_minimize(ids, coverage, engine="greedy")
        assert all(tests & greedy for tests in coverage.values())
        assert len(greedy) <= H8 * optimum or optimum == 0


def test_c06_prioritization_exact_is_argmax_and_scale_invariant():
    rng = random.Random(20_240_006)
    metric = apfd_metric()
    for _ in range(40):
        n = rng.randint(1, 6)
        ids = [f"t{i}" for i in range(n)]
        tests = [tc(i, exectime=rng.randint(1, 9), setup=0) for i in ids]
        ctx = MetricContext(
            faults={
                f"f{j}": frozenset(rng.sample(ids, rng.randint(1, n)))
                for j in range(rng.randint(1, 4))
            }
        )
        sched = rtp_prioritize(tests, metric, engine="exact", ctx=ctx)
        best = metric.evaluate(sched.ids, ctx)
        assert all(best >= metric.evaluate(p, ctx) for p in permutations(ids))
        scaled = QualityMetric("scaled", lambda order, c: 3.0 * metric.fn(order, c))
        assert rtp_prioritize(tests, scaled, engine="exact", ctx=ctx).ids == sched.ids


def test_c07_apfd_worked_values_reproduce_exactly():
    assert apfd(["t1", "t2", "t3", "t4", "t5"], {"f1": {"t1"}, "f2": {"t3"}}) == 0.7
    assert apfd(["t1"], {"f1": {"t1"}}) == 0.5


def test_c08_time_limited_prioritization_feasibility():
    # Exact engine: a feasible non-empty ordering is found whenever the
    # subset-enumeration oracle says one exists.
    rng = random.Random(20_240_008)
    metric = fault_count_metric()
    for _ in range(120):
        tests = cost_suite(rng, rng.randint(1, 6))
        durations = [t.duration for t in tests]
        budget = rng.randint(0, sum(durations))
        sched = ttcp(tests, metric, Rtw.of_budget(budget), engine="exact")
        assert sched.total_cost <= budget
        feasible_exists = min(durations) <= budget
        assert bool(sched.ids) == feasible_exists

    # 1,000 seeded adaptive cycles, zero budget violations.
    cycles = 0
    for seed in range(50):
        cfg = ScenarioConfig(seed=seed, n_builds=21, n_tests=12, fault_rate=0.5)
        bundle = generate_chain(cfg)
        rng = random.Random(seed)
        windows = [
            Rtw.of_budget(rng.randint(0, 80)) for _ in range(len(bundle.chain) - 1)
        ]
        trace = record_trace(
            make_strategy("retecs", {}, metric=metric),
            bundle.chain,
            windows,
            metric,
        )
        for record, window in zip(trace.tuples[1:], windows):
            durations = {
                t.id: t.duration for t in bundle.chain.build(record.index).tests
            }
            assert sum(durations[i] for i in record.schedule) <= window.budget()
            cycles += 1
    assert cycles == 1000


def test_c09_affected_tests_match_path_oracle_on_300_graphs():
    from regsched import affected_tests, build_graph

    rng = random.Random(20_240_009)
    for _ in range(300):
        n_classes = rng.randint(1, 11)
        n_tests = rng.randint(1, 12 - n_classes) if n_classes < 12 else 1
        classes = [f"c{i}" for i in range(n_classes)]
        tests = [f"t{i}" for i in range(n_tests)]
        class_deps = {
            (a, b) for a in classes for b in classes if a != b and rng.random() < 0.25
        }
        test_links = {(t, rng.choice(classes)) for t in tests if rng.random() < 0.9}
        graph = build_graph(classes, tests, class_deps, test_links)
        changed = frozenset(c for c in classes if rng.random() < 0.4)
        candidates = frozenset(t for t in tests if rng.random() < 0.8)
        got = affected_tests(graph, changed, candidates)
        assert got == affected_oracle(graph, changed, candidates)
        grown = changed | frozenset(c for c in classes if rng.random() < 0.3)
        assert got <= affected_tests(graph, grown, candidates)


def test_c10_record_replay_round_trips_for_every_builtin_strategy():
    metric = fault_count_metric()
    strategies = [
        ("retest-all", {}),
        ("random-k", {"k": 4}),
        ("retecs", {}),
        ("depgraph", {}),
    ]
    for name, params in strategies:
        for seed in range(20):
            cfg = ScenarioConfig(seed=seed, n_builds=10, fault_rate=0.5)
            bundle = generate_chain(cfg)
            windows = [Rtw.of_budget(45)] * (len(bundle.chain) - 1)
            eval_ctx = scenario_eval_context(bundle)

            def fresh():
                return make_strategy(
                    name, params, graph=bundle.graph, metric=metric, seed=seed
                )

            observed = []

            class Capture:
                # Wraps a strategy to capture the original run's verdicts.
                name = "capture"

                def __init__(self):
                    self.inner = fresh()

                def plan(self, *a):
                    return self.inner.plan(*a)

                def observe(self, step):
                    observed.append((step.schedule.ids, step.verdicts))
                    self.inner.observe(step)

            trace = record_trace(Capture(), bundle.chain, windows, metric,
                                 eval_context=eval_ctx)
            steps = replay_trace(trace, bundle.chain)
            assert [s.schedule.ids for s in steps[1:]] == [o[0] for o in observed]
            assert [s.verdicts for s in steps[1:]] == [o[1] for o in observed]

            report = check_completeness(
                fresh(), bundle.chain, windows, metric, eval_context=eval_ctx
            )
            assert report.all_verified, (name, seed)


def test_c11_scenario_runs_are_byte_deterministic():
    cfg = ScenarioConfig(seed=424_242, n_builds=12, strategy="retecs", fault_rate=0.5)
    first = run_scenario(cfg)
    second = run_scenario(cfg)
    assert dumps_canonical(report_to_dict(first)) == dumps_canonical(
        report_to_dict(second)
    )
    assert report_to_csv(first) == report_to_csv(second)

    # Runs share no mutable state: scenarios run concurrently in threads
    # report the same bytes as run_many's serial loop.
    cfgs = [ScenarioConfig(seed=s, n_builds=8, strategy="retecs") for s in range(6)]
    serial = [dumps_canonical(report_to_dict(r)) for r in run_many(cfgs)]
    with ThreadPoolExecutor(max_workers=len(cfgs)) as pool:
        threaded = [dumps_canonical(report_to_dict(r)) for r in pool.map(run_scenario, cfgs)]
    assert serial == threaded


def test_c12_adaptive_strategy_improves_under_a_stable_failure_pattern():
    bundle = stable_failure_bundle(n_tests=20, n_cycles=30, n_flaky=4, seed=7)
    metric = apfd_metric()
    suite_cost = sum(t.duration for t in bundle.chain.builds[0].tests)
    windows = [Rtw.of_budget(suite_cost // 2)] * 30
    trace = record_trace(
        make_strategy("retecs", {}, metric=metric),
        bundle.chain,
        windows,
        metric,
        eval_context=scenario_eval_context(bundle),
    )
    q_values = [t.q_value for t in trace.tuples[1:]]
    assert all(q is not None for q in q_values)
    early = statistics.median(q_values[:10])
    late = statistics.median(q_values[20:30])
    assert late >= early, f"median APFD regressed: {early:.3f} -> {late:.3f}"
