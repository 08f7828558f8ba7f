"""Command-line interface.

One verb per concept: ``simulate`` runs a configured scenario,
``schedule`` computes the budget-feasible scope of a transition,
``minimize``/``select``/``prioritize`` run the corresponding technique,
``regall`` compares full overlap outcomes, ``trace`` records, replays,
or checks a strategy run, and ``report`` re-exports a saved report.
Errors exit non-zero with a message on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .budget import Rtw, scope
from .errors import ConfigurationError, RegschedError
from .histio import (
    dump_history,
    dump_trace,
    dumps_canonical,
    ingest_history,
    load_report,
    load_trace,
    loads_json,
    read_json,
    report_text,
)
from .metrics import metric_by_name
from .model import ordered_candidates
from .regall import failed_ids, reg_all
from .simulate import (ScenarioConfig, generate_chain, run_scenario, run_scenario_with_trace,
                       scenario_eval_context)
from .strategies import infer_changed_classes, make_strategy
from .techniques import rtm_minimize, rtp_prioritize, rts_select
from .trace import check_completeness, record_trace, replay_trace


def _parse_window(text: str) -> Rtw:
    if text in ("inf", "unbounded"):
        return Rtw.unbounded()
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise ConfigurationError(
            f"must be an integer >= 0 or 'inf', got {text!r}", field="window"
        )
    return Rtw.of_budget(value)


def _windows_arg(text: str, transitions: int) -> list[Rtw]:
    """``--window``: one budget for every transition, or a comma list with one per transition."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) == 1:
        return [_parse_window(parts[0])] * transitions
    if len(parts) != transitions:
        raise ConfigurationError(f"need one value or {transitions}, got {len(parts)}", field="window")
    return [_parse_window(p) for p in parts]


def _write(args, text: str) -> None:
    """Every verb's output: the file named by ``--out``, else stdout."""
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(args, payload: dict) -> None:
    _write(args, dumps_canonical(payload))


def _load_transition(args):
    bundle = ingest_history(args.history)
    try:
        b_prev = bundle.chain.build(args.prev)
        b_next = bundle.chain.build(args.next)
    except KeyError as exc:
        raise ConfigurationError(str(exc.args[0]), field="build index") from None
    return bundle, b_prev, b_next


def _read_config(args) -> ScenarioConfig:
    raw = read_json(args.config)
    if args.seed is not None and isinstance(raw, dict):
        raw["seed"] = args.seed
    return ScenarioConfig.from_dict(raw)


def _cmd_simulate(args) -> int:
    cfg = _read_config(args)
    if args.trace:
        report, trace = run_scenario_with_trace(cfg)
        dump_trace(trace, args.trace)
    else:
        report = run_scenario(cfg)
    _write(args, report_text(report, args.format))
    return 0


def _cmd_generate(args) -> int:
    dump_history(generate_chain(_read_config(args)), args.out)
    return 0


def _cmd_schedule(args) -> int:
    _, b_prev, b_next = _load_transition(args)
    window = _parse_window(args.window)
    result = scope(ordered_candidates(b_prev, b_next), window)
    _emit(
        args,
        {
            "count": result.count,
            "witness": list(result.witness),
            "total_cost": result.total_cost,
        },
    )
    return 0


def _cmd_minimize(args) -> int:
    bundle, b_prev, b_next = _load_transition(args)
    candidates = ordered_candidates(b_prev, b_next)
    shared_stories = sorted(b_prev.story_ids() & b_next.story_ids())
    coverage = {s: bundle.coverage.get(s, frozenset()) for s in shared_stories}
    chosen = rtm_minimize(candidates, coverage, engine=args.engine)
    _emit(args, {"tests": sorted(chosen), "requirements": shared_stories})
    return 0


def _cmd_select(args) -> int:
    bundle, b_prev, b_next = _load_transition(args)
    changed = infer_changed_classes(b_prev, b_next, bundle.graph)
    chosen = rts_select(
        b_prev,
        b_next,
        args.selector,
        graph=bundle.graph,
        changed_classes=changed,
        k=args.k,
        seed=args.seed,
    )
    _emit(args, {"selector": args.selector, "tests": sorted(chosen)})
    return 0


def _cmd_prioritize(args) -> int:
    bundle, b_prev, b_next = _load_transition(args)
    metric = metric_by_name(args.metric)
    ctx = scenario_eval_context(bundle)(b_prev, b_next, (), ())
    schedule = rtp_prioritize(
        ordered_candidates(b_prev, b_next), metric, engine=args.engine, ctx=ctx
    )
    _emit(
        args,
        {"order": list(schedule.ids), "total_cost": schedule.total_cost, "metric": args.metric},
    )
    return 0


def _cmd_regall(args) -> int:
    _, b_prev, b_next = _load_transition(args)
    report = reg_all(b_prev, b_next, _parse_window(args.window))
    _emit(
        args,
        {
            "result": report.result,
            "first_inconsistent": report.first_inconsistent,
            "vacuous": report.vacuous,
            "verdicts": [{**v._asdict(), "consistent": v.consistent} for v in report.verdicts],
        },
    )
    return 0


def _strategy_run(args):
    """What ``trace record`` and ``trace check`` run: strategy, chain, windows, metric, context."""
    bundle = ingest_history(args.history)
    metric = metric_by_name(args.metric)
    windows = _windows_arg(args.window, max(len(bundle.chain) - 1, 0))
    params = {}
    if args.params:
        params = loads_json(args.params, lambda msg: ConfigurationError(msg, field="params"))
    strategy = make_strategy(args.strategy, params, graph=bundle.graph, metric=metric, seed=args.seed)
    return strategy, bundle.chain, windows, metric, scenario_eval_context(bundle)


def _cmd_trace_record(args) -> int:
    strategy, chain, windows, metric, eval_context = _strategy_run(args)
    dump_trace(record_trace(strategy, chain, windows, metric, eval_context=eval_context), args.out)
    return 0


def _cmd_trace_replay(args) -> int:
    bundle = ingest_history(args.history)
    trace = load_trace(args.trace)
    steps = replay_trace(trace, bundle.chain)
    _emit(
        args,
        {
            "steps": [
                {
                    "index": s.index,
                    "schedule": list(s.schedule.ids),
                    "total_cost": s.schedule.total_cost,
                    "failed": sorted(failed_ids(s.verdicts)),
                }
                for s in steps
            ]
        },
    )
    return 0


def _cmd_trace_check(args) -> int:
    strategy, chain, windows, metric, eval_context = _strategy_run(args)
    report = check_completeness(strategy, chain, windows, metric, eval_context=eval_context)
    _emit(
        args,
        {
            "all_verified": report.all_verified,
            "builds": [
                {"index": b.build_index, "ok": b.ok, "mismatches": list(b.mismatches)}
                for b in report.builds
            ],
        },
    )
    return 0 if report.all_verified else 1


def _cmd_report(args) -> int:
    _write(args, report_text(load_report(args.input), args.format))
    return 0


def _add_transition_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--history", required=True, help="history JSON file")
    p.add_argument("--prev", type=int, required=True, help="previous build index")
    p.add_argument("--next", type=int, required=True, help="next build index")
    p.add_argument("--out", help="write JSON here instead of stdout")


def _add_strategy_run_args(p: argparse.ArgumentParser, *, out_required: bool) -> None:
    p.add_argument("--history", required=True, help="history JSON file")
    p.add_argument("--strategy", required=True)
    p.add_argument("--params", help="strategy parameters as JSON")
    p.add_argument("--metric", default="apfd")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", default="inf",
                   help="budget or 'inf' for every transition, or a comma list of one each")
    p.add_argument("--out", required=out_required)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regsched",
        description="Budget-aware regression-test scheduling over CI build chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a configured scenario")
    p.add_argument("--config", required=True, help="scenario config JSON file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--trace", help="also write the recorded trace here")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("generate", help="generate a history file from a scenario config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("schedule", help="max tests fitting a window on a transition")
    _add_transition_args(p)
    p.add_argument("--window", required=True, help="budget in microunits, or 'inf'")
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("minimize", help="cover all shared requirements with fewer tests")
    _add_transition_args(p)
    p.add_argument("--engine", choices=("greedy", "exact"), default="greedy")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("select", help="choose a candidate subset")
    _add_transition_args(p)
    p.add_argument(
        "--selector",
        choices=("retest-all", "dependency-graph", "random-k"),
        default="retest-all",
    )
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("prioritize", help="order the candidate set by a metric")
    _add_transition_args(p)
    p.add_argument("--metric", default="apfd")
    p.add_argument("--engine", choices=("greedy", "exact"), default="greedy")
    p.set_defaults(func=_cmd_prioritize)

    p = sub.add_parser("regall", help="compare all overlapping outcomes")
    _add_transition_args(p)
    p.add_argument("--window", default="inf")
    p.set_defaults(func=_cmd_regall)

    p = sub.add_parser("trace", help="record, replay, or check a strategy run")
    trace_sub = p.add_subparsers(dest="trace_command", required=True)

    tp = trace_sub.add_parser("record", help="run a strategy and save its trace")
    _add_strategy_run_args(tp, out_required=True)
    tp.set_defaults(func=_cmd_trace_record)

    tp = trace_sub.add_parser("replay", help="re-execute a recorded trace")
    tp.add_argument("--history", required=True)
    tp.add_argument("--trace", required=True)
    tp.add_argument("--out")
    tp.set_defaults(func=_cmd_trace_replay)

    tp = trace_sub.add_parser("check", help="verify a recording reproduces a live run")
    _add_strategy_run_args(tp, out_required=False)
    tp.set_defaults(func=_cmd_trace_check)

    p = sub.add_parser("report", help="re-export a saved report")
    p.add_argument("--in", required=True, dest="input", help="report JSON file")
    p.add_argument("--format", choices=("json", "csv"), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RegschedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
