"""Compare strategies on one simulated chain, then replay a run exactly.

Generates a seeded 15-build chain, runs three strategies over the same
windows, and shows each run's schedule sizes and mean quality. The
adaptive run is then recorded, replayed, and verified field by field;
the demo exits 1 if the replay or the verification does not match.
"""

import sys

from regsched import (
    Rtw,
    ScenarioConfig,
    check_completeness,
    generate_chain,
    make_strategy,
    metric_by_name,
    record_trace,
    replay_trace,
    run_scenario,
)
from regsched.simulate import scenario_eval_context


def summarize(cfg):
    report = run_scenario(cfg)
    sizes = [len(r.schedule) for r in report.rows]
    mean_q = "n/a" if report.mean_q is None else f"{report.mean_q:.3f}"
    recall = "n/a" if report.fault_recall is None else f"{report.fault_recall:.2f}"
    print(
        f"{cfg.strategy:>11}: schedules {sizes} mean_q={mean_q} recall={recall}"
    )


def main():
    base = dict(seed=2024, n_builds=15, n_tests=16, fault_rate=0.6,
                window_policy="fixed", window_value=90, metric="apfd")
    print("same chain, same windows, three schedulers:\n")
    summarize(ScenarioConfig(strategy="retest-all", **base))
    summarize(ScenarioConfig(strategy="depgraph", **base))
    summarize(ScenarioConfig(strategy="retecs", **base))

    print("\nrecording the adaptive run as one tuple per build...")
    cfg = ScenarioConfig(strategy="retecs", **base)
    bundle = generate_chain(cfg)
    metric = metric_by_name(cfg.metric)
    windows = [Rtw.of_budget(cfg.window_value)] * (len(bundle.chain) - 1)
    eval_ctx = scenario_eval_context(bundle)

    def fresh():
        return make_strategy("retecs", {}, graph=bundle.graph, metric=metric)

    trace = record_trace(fresh(), bundle.chain, windows, metric, eval_context=eval_ctx)
    steps = replay_trace(trace, bundle.chain)
    identical = all(
        step.schedule.ids == record.schedule
        for step, record in zip(steps, trace.tuples)
    )
    print(f"replayed {len(steps)} builds; schedules identical: {identical}")

    verification = check_completeness(
        fresh(), bundle.chain, windows, metric, eval_context=eval_ctx
    )
    print(f"record-vs-live verification: all builds ok = {verification.all_verified}")
    return 0 if identical and verification.all_verified else 1


if __name__ == "__main__":
    sys.exit(main())
