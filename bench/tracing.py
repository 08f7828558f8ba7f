"""Span tracing of regsched's layers, installed from outside the library.

Each layer function is replaced, for the length of a traced pass, by a
wrapper that records one span per call: name, start, end, parent span,
operation id, and an optional amount (tests executed, bytes written,
rows parsed). The wrapper goes into the namespace the caller reads at
call time: ``regsched.trace.run_tests`` rather than
``regsched.regall.run_tests`` for ``record_trace``'s calls, and the
class attribute for methods such as ``QualityMetric.evaluate`` and each
strategy's ``plan``. ``Tracer.uninstall`` puts every original back and
reports any attribute that is not the original afterwards.

Spans live in flat arrays while the pass runs, so a pass with a million
metric evaluations stays under 40 MB. Per-layer self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

STRATEGY_NAMES = ("retest-all", "random-k", "retecs", "depgraph")
CLI_VERBS = ("generate", "trace-record", "trace-replay", "trace-check")

# Per-layer self-time metrics and the span names each one sums.
SELF_TIME_METRICS: dict[str, tuple[str, ...]] = {
    "model.candidate_set.self_s": ("model.candidate_set", "model.ordered_candidates"),
    "model.classify_transition.self_s": ("model.classify_transition",),
    **{
        f"strategies.plan.{s}.self_s": (f"strategies.plan.{s}",)
        for s in STRATEGY_NAMES
    },
    "strategies.observe.self_s": ("strategies.observe",),
    "budget.feasible_prefix.self_s": ("budget.feasible_prefix",),
    "retecs.ttcp.self_s": ("retecs.ttcp",),
    "retecs.atcs.self_s": ("retecs.atcs",),
    "retecs.agent_update.self_s": ("retecs.agent_update",),
    "depgraph.affected_tests.self_s": ("depgraph.affected_tests",),
    "depgraph.order_by_history.self_s": ("depgraph.order_by_history",),
    "depgraph.failure_score.self_s": ("depgraph.failure_score",),
    "regall.run_tests.self_s": ("regall.run_tests",),
    "regall.reg_all.self_s": ("regall.reg_all",),
    "trace.record_trace.self_s": ("trace.record_trace",),
    "trace.replay_trace.self_s": ("trace.replay_trace",),
    "trace.check_completeness.self_s": ("trace.check_completeness",),
    "cli.main.self_s": tuple(f"cli.{v}" for v in CLI_VERBS),
    "simulate.generate_chain.self_s": ("simulate.generate_chain",),
    "simulate.eval_context.self_s": ("simulate.eval_context",),
    "simulate.run_scenario.self_s": ("simulate.run_scenario",),
    "simulate.run_many.self_s": ("simulate.run_many",),
    "histio.serialize_history.self_s": ("histio.serialize_history",),
    "histio.dumps_canonical.self_s": ("histio.dumps_canonical",),
    "histio.ingest_history.self_s": ("histio.ingest_history",),
    "histio.parse_history.self_s": ("histio.parse_history",),
    "histio.derive_execution_history.self_s": ("histio.derive_execution_history",),
    "techniques.rtp_prioritize.greedy.self_s": ("techniques.rtp_prioritize.greedy",),
    "techniques.rtp_prioritize.exact.self_s": ("techniques.rtp_prioritize.exact",),
    "techniques.rtm_minimize.greedy.self_s": ("techniques.rtm_minimize.greedy",),
    "retecs.ttcp.exact.self_s": ("retecs.ttcp.exact",),
    "budget.scope.self_s": ("budget.scope",),
    "budget.scope_bruteforce.self_s": ("budget.scope_bruteforce",),
    "metrics.evaluate.self_s": ("metrics.evaluate",),
}

# Every per-layer metric a traced run prints, with its unit.
PER_LAYER_UNITS: dict[str, str] = {
    **{name: "s" for name in SELF_TIME_METRICS},
    "model.candidate_set.calls_per_transition": "calls/transition",
    "budget.feasible_prefix.calls": "count",
    "depgraph.failure_score.calls": "count",
    "regall.run_tests.executions": "count",
    "trace.rerun_ratio": "ratio",
    "trace.check_completeness.record_calls": "count",
    **{f"cli.{v}.wall_s": "s" for v in CLI_VERBS},
    "histio.dumps_canonical.bytes": "bytes",
    "histio.parse_history.test_rows": "count",
    "metrics.evaluate.calls": "count",
    "retecs.ttcp.exact.discarded_evals": "count",
    "bench.trace_overhead_s": "s",
    "bench.traced_wall_s": "s",
    "bench.untraced_wall_s": "s",
    "bench.uncovered_s": "s",
}


def _arg(args: tuple, kwargs: dict, position: int, key: str, default=None):
    if key in kwargs:
        return kwargs[key]
    if len(args) > position:
        return args[position]
    return default


@dataclass(frozen=True)
class Target:
    """One attribute to replace: ``owner.attr`` becomes a span wrapper.

    ``name`` is the span name, or a function of the call's arguments;
    ``amount`` maps (args, kwargs, result) to the span's amount.
    ``returns_callable`` wraps the returned function instead of the call.
    """

    owner: object
    attr: str
    name: str | Callable[[tuple, dict], str]
    amount: Callable[[tuple, dict, object], int] | None = None
    returns_callable: bool = False


def layer_targets(rs) -> list[Target]:
    """Every wrapped layer function, in the namespaces its callers use.

    ``rs`` is a namespace holding the imported ``regsched`` submodules.
    """
    targets: list[Target] = []

    def add(owners, attr, name, amount=None, returns_callable=False):
        for owner in owners:
            targets.append(Target(owner, attr, name, amount, returns_callable))

    add([rs.model, rs.simulate, rs.techniques, rs.cli], "candidate_set", "model.candidate_set")
    add([rs.trace, rs.regall, rs.retecs, rs.cli], "ordered_candidates", "model.ordered_candidates")
    add([rs.simulate], "classify_transition", "model.classify_transition")
    for cls in (
        rs.strategies.RetestAllStrategy,
        rs.strategies.RandomKStrategy,
        rs.strategies.RetecsStrategy,
        rs.strategies.DepGraphStrategy,
    ):
        add([cls], "plan", f"strategies.plan.{cls.name}")
        add([cls], "observe", "strategies.observe")
    add(
        [rs.strategies, rs.retecs, rs.depgraph, rs.techniques],
        "feasible_prefix",
        "budget.feasible_prefix",
    )
    add(
        [rs.retecs],
        "ttcp",
        lambda a, k: "retecs.ttcp.exact" if _arg(a, k, 3, "engine", "greedy") == "exact"
        else "retecs.ttcp",
    )
    add([rs.retecs], "atcs", "retecs.atcs")
    add([rs.strategies], "agent_update", "retecs.agent_update")
    add([rs.strategies, rs.techniques], "affected_tests", "depgraph.affected_tests")
    add([rs.strategies], "order_by_history", "depgraph.order_by_history")
    add([rs.depgraph], "failure_score", "depgraph.failure_score")
    add(
        [rs.trace, rs.regall, rs.retecs],
        "run_tests",
        "regall.run_tests",
        amount=lambda a, k, r: len(_arg(a, k, 2, "test_ids")),
    )
    add([rs.simulate, rs.cli], "reg_all", "regall.reg_all")
    add([rs.simulate, rs.cli, rs.trace], "record_trace", "trace.record_trace")
    add([rs.simulate, rs.cli], "replay_trace", "trace.replay_trace")
    add([rs.cli], "check_completeness", "trace.check_completeness")
    add([rs.cli], "main", _cli_span_name)
    add([rs.simulate, rs.cli], "generate_chain", "simulate.generate_chain")
    add(
        [rs.simulate, rs.cli],
        "scenario_eval_context",
        "simulate.eval_context",
        returns_callable=True,
    )
    add([rs.simulate, rs.cli], "run_scenario_with_trace", "simulate.run_scenario")
    add([rs.simulate], "run_scenario", "simulate.run_scenario")
    add([rs.simulate], "run_many", "simulate.run_many")
    add([rs.histio], "serialize_history", "histio.serialize_history")
    add(
        [rs.histio, rs.cli],
        "dumps_canonical",
        "histio.dumps_canonical",
        amount=lambda a, k, r: len(r.encode()),
    )
    add([rs.cli], "ingest_history", "histio.ingest_history")
    add(
        [rs.histio],
        "parse_history",
        "histio.parse_history",
        amount=lambda a, k, r: sum(len(b["tests"]) for b in _arg(a, k, 0, "data")["builds"]),
    )
    add([rs.histio], "derive_execution_history", "histio.derive_execution_history")
    add(
        [rs.techniques],
        "rtp_prioritize",
        lambda a, k: f"techniques.rtp_prioritize.{_arg(a, k, 2, 'engine', 'greedy')}",
    )
    add(
        [rs.techniques],
        "rtm_minimize",
        lambda a, k: f"techniques.rtm_minimize.{_arg(a, k, 2, 'engine', 'greedy')}",
    )
    add([rs.budget], "scope", "budget.scope")
    add([rs.budget], "scope_bruteforce", "budget.scope_bruteforce")
    add([rs.metrics.QualityMetric], "evaluate", "metrics.evaluate")
    return targets


def _label(target: Target) -> str:
    return f"{getattr(target.owner, '__qualname__', target.owner.__name__)}.{target.attr}"


def _cli_span_name(args: tuple, kwargs: dict) -> str:
    argv = list(_arg(args, kwargs, 0, "argv"))
    verb = "-".join(argv[:2]) if argv[0] == "trace" else argv[0]
    return f"cli.{verb}"


class Tracer:
    """Keeps the spans of one traced pass and installs the wrappers."""

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.op = 0
        self._installed: list[tuple[Target, object]] = []
        self._name_ids: dict[str, int] = {}
        self.span_names: list[str] = []
        self.names = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.amounts = array("q")
        self._stack: list[int] = []

    def reset(self) -> None:
        """Drop the spans kept so far (the arrays are cleared in place)."""
        for column in self._columns():
            del column[:]
        self._stack.clear()
        self.op = 0

    def begin_op(self) -> None:
        self.op += 1

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return nid

    def wrap(self, fn, name, amount=None):
        """A function that records one span per call of ``fn``."""
        names, parents, ops = self.names, self.parents, self.ops
        starts, ends, amounts, stack = self.starts, self.ends, self.amounts, self._stack
        intern = self._intern
        static = intern(name) if isinstance(name, str) else None
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(static if static is not None else intern(name(args, kwargs)))
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            amounts.append(0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if amount is not None:
                amounts[idx] = amount(args, kwargs, result)
            return result

        return wrapper

    def _replacement(self, target: Target, original):
        if not target.returns_callable:
            return self.wrap(original, target.name, target.amount)

        def factory(*args, **kwargs):
            return self.wrap(original(*args, **kwargs), target.name, target.amount)

        return factory

    def install(self) -> list[str]:
        """Wrap every target; return those whose attribute does not exist.

        A namespace that no longer holds a function has no caller reading
        it there, so the target is skipped rather than failing the run.
        """
        missing = []
        for target in self.targets:
            original = target.owner.__dict__.get(target.attr)
            if original is None:
                missing.append(_label(target))
                continue
            self._installed.append((target, original))
            setattr(target.owner, target.attr, self._replacement(target, original))
        return missing

    def uninstall(self) -> list[str]:
        """Restore every original; return the attributes left wrapped."""
        for target, original in self._installed:
            setattr(target.owner, target.attr, original)
        left = [
            _label(target)
            for target, original in self._installed
            if target.owner.__dict__[target.attr] is not original
        ]
        self._installed.clear()
        return left

    def snapshot(self) -> tuple[array, ...]:
        """Copies of the span columns, kept until the run ends."""
        return tuple(array(c.typecode, c) for c in self._columns())

    def _columns(self) -> tuple[array, ...]:
        return (self.names, self.parents, self.ops, self.starts, self.ends, self.amounts)

    def write_spans(self, path: Path, pass_no: int, spans: tuple[array, ...]) -> None:
        """Write one pass's snapshot as a tab-separated file."""
        label = self.span_names
        with open(path, "w") as out:
            out.write("pass\tspan\tname\tstart_s\tend_s\tparent\top\tamount\n")
            for i, (nid, parent, op, start, end, amount) in enumerate(zip(*spans)):
                out.write(
                    f"{pass_no}\t{i}\t{label[nid]}\t{start!r}\t{end!r}\t{parent}\t{op}\t{amount}\n"
                )

    def layer_metrics(self, transitions: int, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the kept spans for a pass of ``wall_s`` seconds."""
        n = len(self.names)
        names, parents = self.names, self.parents
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += durations[i]
        self_s: dict[str, float] = defaultdict(float)
        wall: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        amount: dict[str, int] = defaultdict(int)
        under: dict[tuple[str, str], int] = defaultdict(int)
        under_amount: dict[tuple[str, str], int] = defaultdict(int)
        label = self.span_names
        for i in range(n):
            name = label[names[i]]
            self_s[name] += durations[i] - child[i]
            wall[name] += durations[i]
            calls[name] += 1
            amount[name] += self.amounts[i]
            p = parents[i]
            if p >= 0:
                key = (label[names[p]], name)
                under[key] += 1
                under_amount[key] += self.amounts[i]

        out: dict[str, float] = {
            metric: sum(self_s.get(s, 0.0) for s in spans)
            for metric, spans in SELF_TIME_METRICS.items()
        }
        recorded = under_amount[("trace.record_trace", "regall.run_tests")]
        replayed = under_amount[("trace.replay_trace", "regall.run_tests")]
        out.update(
            {
                "model.candidate_set.calls_per_transition": (
                    calls["model.candidate_set"] / transitions
                ),
                "budget.feasible_prefix.calls": calls["budget.feasible_prefix"],
                "depgraph.failure_score.calls": calls["depgraph.failure_score"],
                "regall.run_tests.executions": amount["regall.run_tests"],
                "trace.rerun_ratio": replayed / recorded if recorded else 0.0,
                "trace.check_completeness.record_calls": under[
                    ("trace.check_completeness", "trace.record_trace")
                ],
                **{f"cli.{v}.wall_s": wall[f"cli.{v}"] for v in CLI_VERBS},
                "histio.dumps_canonical.bytes": amount["histio.dumps_canonical"],
                "histio.parse_history.test_rows": amount["histio.parse_history"],
                "metrics.evaluate.calls": calls["metrics.evaluate"],
                "retecs.ttcp.exact.discarded_evals": under[
                    ("retecs.ttcp.exact", "metrics.evaluate")
                ],
                "bench.traced_wall_s": wall_s,
                "bench.uncovered_s": wall_s - sum(
                    out[m] for m in SELF_TIME_METRICS
                ),
            }
        )
        unlisted = set(self_s) - {s for spans in SELF_TIME_METRICS.values() for s in spans}
        if unlisted:
            raise RuntimeError(f"spans without a self-time metric: {sorted(unlisted)}")
        return out
