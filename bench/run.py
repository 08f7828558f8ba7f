"""regsched benchmark: one workload, timed end to end or traced by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload chain-adaptive --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones (wall_s, transitions_per_s, peak_rss_mb,
setup_s); with ``--trace 1`` they are the per-layer ones. The lines before
it record the interpreter, CPU counts and every sample. ``--pin`` runs one
checked pass and stores its output digests in pinned.json as the expected
outputs for that seed. README.md in this directory defines every
workload and metric.

The library is imported from ``src/`` next to this directory; nothing is
installed. Scratch files go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from tracing import PER_LAYER_UNITS, Tracer, layer_targets
from workloads import WORKLOADS, OpFailure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = HERE / "pinned.json"
WORK_ROOT = ROOT / ".bench_work"
SUBMODULES = (
    "budget", "cli", "depgraph", "histio", "metrics", "model",
    "regall", "retecs", "simulate", "strategies", "techniques", "trace",
)
# Set-up is timed this many times per run; the median is reported.
SETUP_REPEATS = 11


class Lib:
    """The freshly imported regsched submodules, by short name."""

    def __init__(self) -> None:
        for name in SUBMODULES:
            setattr(self, name, importlib.import_module(f"regsched.{name}"))


def import_regsched() -> Lib:
    """Import regsched from scratch, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "regsched" or m.startswith("regsched.")]:
        del sys.modules[name]
    importlib.import_module("regsched")
    return Lib()


class Runner:
    """Times passes and turns their outputs into attempted/failed counts.

    Every pass, traced or not, must give the first pass's digests again.
    ``finish`` runs the invariant and oracle checks on the first pass's
    outputs and, on a pinned seed, compares its digests with pinned.json;
    it runs after the timed passes so that the checks' own memory does not
    count in the peak RSS.
    """

    def __init__(self, workload, pinned: dict[str, str] | None):
        self.workload = workload
        self.pinned = pinned
        self.reference: dict[str, str] | None = None
        self._first: dict[str, object] = {}
        # Per operation, how many passes gave the first pass's output: all
        # of them fail together if that output fails a check.
        self._matches: dict[str, int] = {}
        self._ops: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def timed_pass(self, begin_op) -> tuple[float, dict[str, object]]:
        gc.collect()
        start = perf_counter()
        outputs = self.workload.run_pass(begin_op)
        return perf_counter() - start, outputs

    def run_pass(self) -> float:
        wall, outputs = self.timed_pass(lambda: None)
        self.account(outputs)
        return wall

    def account(self, outputs: dict[str, object]) -> None:
        failures = {op: out.reason for op, out in outputs.items() if isinstance(out, OpFailure)}
        digests = {
            op: hashlib.sha256(self.workload.canonical(op, out)).hexdigest()
            for op, out in outputs.items()
            if op not in failures
        }
        if self.reference is None:
            self.reference = digests
            self._first = {op: outputs[op] for op in digests}
        for op, digest in digests.items():
            if self.reference.get(op) == digest:
                self._matches[op] = self._matches.get(op, 0) + 1
            else:
                failures[op] = "output differs from the first pass"
        self._ops.update(outputs)
        self.attempted += len(outputs)
        self._fail(failures, {op: 1 for op in failures})

    def finish(self) -> None:
        failures = self.workload.check(self._first)
        reference = self.reference or {}
        if self.pinned is not None:
            for op in sorted(set(self.pinned) - self._ops):
                self.problems.append(f"{op}: pinned operation was not attempted")
            for op, digest in reference.items():
                if self.pinned.get(op) != digest:
                    failures.setdefault(op, "output digest differs from pinned.json")
        self._first = {}
        self._fail(failures, self._matches)

    def _fail(self, failures: dict[str, str], counts: dict[str, int]) -> None:
        self.failed += sum(counts[op] for op in failures)
        self.problems.extend(f"{op}: {why}" for op, why in sorted(failures.items()))


def measure(seconds: float, one_pass, warm_up: bool = False) -> list:
    """Call ``one_pass`` until the next call would end past ``seconds``.

    With ``warm_up`` the first call's result is dropped (the interpreter's
    heap grows during it, and it runs measurably slower); at least one
    result is always returned.
    """
    results = []
    start = perf_counter()
    while True:
        began = perf_counter()
        results.append(one_pass())
        now = perf_counter()
        if len(results) > warm_up and now - start + (now - began) > seconds:
            return results[1:] if warm_up else results


def plain_run(runner: Runner, workload, seconds: float, setup_s: list[float]) -> dict:
    walls = measure(seconds, runner.run_pass, warm_up=True)
    wall = median(walls)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"pass_wall_s": walls, "setup_samples_s": setup_s}))
    return {
        "wall_s": (wall, "s"),
        "transitions_per_s": (workload.transitions / wall, "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (median(setup_s), "s"),
    }


def traced_run(runner: Runner, workload, lib: Lib, seconds: float, workload_name: str) -> dict:
    untraced = measure(seconds / 2, runner.run_pass, warm_up=True)
    tracer = Tracer(layer_targets(lib))

    not_wrapped: list[str] = []

    def traced_pass():
        tracer.reset()
        not_wrapped[:] = tracer.install()
        try:
            wall, outputs = runner.timed_pass(tracer.begin_op)
        finally:
            left = tracer.uninstall()
        runner.problems.extend(f"still wrapped after the traced run: {a}" for a in left)
        runner.account(outputs)
        return wall, tracer.layer_metrics(workload.transitions, wall), tracer.snapshot()

    passes = measure(seconds / 2, traced_pass)
    traced_walls = [wall for wall, _, _ in passes]
    # The per-layer metrics come from the traced pass of median wall time,
    # so that its self times and uncovered remainder add up to its wall.
    order = sorted(range(len(passes)), key=lambda i: passes[i][0])
    chosen = order[(len(order) - 1) // 2]
    _, layers, spans = passes[chosen]
    spans_path = WORK_ROOT / f"spans-{workload_name}.tsv"
    tracer.write_spans(spans_path, chosen + 1, spans)
    layers["bench.untraced_wall_s"] = median(untraced)
    layers["bench.trace_overhead_s"] = median(traced_walls) - median(untraced)
    print(
        json.dumps(
            {"untraced_pass_wall_s": untraced, "traced_pass_wall_s": traced_walls,
             "spans_file": str(spans_path.relative_to(ROOT)), "not_wrapped": not_wrapped}
        )
    )
    return {name: (layers[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="store this seed's output digests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "regsched" / "__init__.py").is_file():
        print(f"error: no regsched sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    pins = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    pin = pins.get(args.workload)
    pinned = pin["digests"] if pin and pin["seed"] == args.seed and not args.pin else None

    setup_s: list[float] = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        gc.collect()
        start = perf_counter()
        lib = import_regsched()
        workload = WORKLOADS[args.workload](lib, args.seed, WORK_ROOT)
        setup_s.append(perf_counter() - start)

    runner = Runner(workload, pinned)
    try:
        if args.pin:
            runner.run_pass()
            runner.finish()
            if runner.failed or runner.problems:
                print("\n".join(runner.problems), file=sys.stderr)
                return 1
            pins[args.workload] = {"seed": args.seed, "digests": runner.reference}
            PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
            print(f"pinned {len(runner.reference)} digests for {args.workload} seed {args.seed}")
            return 0
        print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed,
                          "pinned": pinned is not None}))
        if args.trace:
            metrics = traced_run(runner, workload, lib, args.seconds, args.workload)
        else:
            metrics = plain_run(runner, workload, args.seconds, setup_s)
        runner.finish()
    finally:
        workload.close()

    for line in runner.problems:
        print(f"problem: {line}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0 and not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
