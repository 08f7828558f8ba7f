"""The benchmark's workloads: inputs made from a seed, one timed pass, checks.

A workload is built once per set-up from the imported ``regsched``
submodules (``rs``) and the seed. ``run_pass`` is the timed part: it hands
the prepared inputs to the library and returns one output per operation
(or an ``OpFailure``). ``canonical`` turns an output into the bytes whose
SHA-256 is pinned, and ``check`` runs the invariant and oracle checks on
the first pass's outputs. Neither is timed.

Each workload is a closed loop with one caller in one process and starts
no threads. README.md in this directory says why each one exists.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Sizes of the generated inputs, tests x builds.
CHAIN_TESTS, CHAIN_BUILDS, CHAIN_CLASSES = 500, 100, 50
CLI_TESTS, CLI_BUILDS, CLI_CLASSES = 300, 60, 50
ENGINE_TESTS, ENGINE_BUILDS, ENGINE_FAULT_RATE = 120, 40, 0.6
# The engines run on this many transitions per pass: the first ones, in
# build order, that have an active fault. A fixed count keeps the work per
# pass the same for every seed (a chain's number of such transitions is not).
ENGINE_CASES = 8
# Prefix lengths for the exact engines; their guards are 7 (ttcp), 8 (rtp)
# and 20 (scope_bruteforce).
EXACT_PREFIX, BRUTEFORCE_PREFIX = 7, 14


@dataclass(frozen=True)
class OpFailure:
    """An operation that raised or exited non-zero."""

    reason: str


BeginOp = Callable[[], None]


def _json_bytes(value: object) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def check_report(rs, cfg, report, *, runs_everything: bool) -> str | None:
    """Why a scenario report breaks an invariant, or None.

    Every schedule must be duplicate-free, lie inside its transition's
    candidate set (tests of both builds, recomputed here from the chain),
    cost what its row says and fit the window budget. Under an unbounded
    window ``regall_match`` must hold, and ``runs_everything`` demands the
    whole candidate set in id order.
    """
    bundle = rs.simulate.generate_chain(cfg)
    builds = bundle.chain.builds
    windows = rs.simulate.windows_for(cfg, bundle)
    if len(report.rows) != len(builds) - 1:
        return f"{len(report.rows)} rows for {len(builds) - 1} transitions"
    for row, b_prev, b_next, window in zip(report.rows, builds, builds[1:], windows):
        where = f"build {b_next.index}"
        prev_ids = {t.id for t in b_prev.tests}
        durations = {t.id: t.exectime + t.setup for t in b_next.tests if t.id in prev_ids}
        if row.build_index != b_next.index or row.candidate_count != len(durations):
            return f"{where}: index or candidate count differs from the chain"
        if len(set(row.schedule)) != len(row.schedule):
            return f"{where}: schedule repeats a test"
        outside = set(row.schedule) - durations.keys()
        if outside:
            return f"{where}: schedule leaves the candidate set: {sorted(outside)[:3]}"
        cost = sum(durations[i] for i in row.schedule)
        budget = window.budget()
        if cost != row.total_cost or (budget is not None and cost > budget):
            return f"{where}: cost {cost} (row says {row.total_cost}) against budget {budget}"
        if budget is None and row.regall_match is not True:
            return f"{where}: unbounded run disagrees with reg_all"
        if runs_everything and row.schedule != tuple(sorted(durations)):
            return f"{where}: retest-all skipped candidates"
    if report.total_cost != sum(r.total_cost for r in report.rows):
        return "aggregate total_cost differs from the rows"
    return None


class ChainAdaptive:
    """``run_many`` over retecs (apfd), depgraph and random-k (k=60), nightly window."""

    def __init__(self, rs, seed: int, work_root: Path):
        self.rs = rs
        config = rs.simulate.ScenarioConfig
        common = dict(
            seed=seed,
            n_tests=CHAIN_TESTS,
            n_builds=CHAIN_BUILDS,
            n_classes=CHAIN_CLASSES,
            window_policy="nightly",
        )
        self.cfgs = [
            config(strategy="retecs", metric="apfd", **common),
            config(strategy="depgraph", **common),
            config(strategy="random-k", strategy_params={"k": 60}, **common),
        ]
        self.transitions = sum(c.n_builds - 1 for c in self.cfgs)

    def run_pass(self, begin_op: BeginOp) -> dict[str, object]:
        labels = [c.strategy for c in self.cfgs]
        begin_op()
        try:
            reports = self.rs.simulate.run_many(self.cfgs)
        except Exception as exc:  # every scenario in the batch failed with it
            return {label: OpFailure(repr(exc)) for label in labels}
        return dict(zip(labels, reports))

    def canonical(self, op: str, output) -> bytes:
        histio = self.rs.histio
        return histio.dumps_canonical(histio.report_to_dict(output)).encode()

    def check(self, outputs: dict[str, object]) -> dict[str, str]:
        problems = {}
        for cfg in self.cfgs:
            if cfg.strategy in outputs:
                why = check_report(self.rs, cfg, outputs[cfg.strategy], runs_everything=False)
                if why:
                    problems[cfg.strategy] = why
        return problems

    def close(self) -> None:
        pass


class ChainUnbounded(ChainAdaptive):
    """``run_scenario`` with retest-all under unbounded windows, coverage metric."""

    def __init__(self, rs, seed: int, work_root: Path):
        self.rs = rs
        self.cfg = rs.simulate.ScenarioConfig(
            seed=seed,
            n_tests=CHAIN_TESTS,
            n_builds=CHAIN_BUILDS,
            n_classes=CHAIN_CLASSES,
            window_policy="unbounded",
            strategy="retest-all",
            metric="coverage",
        )
        self.transitions = self.cfg.n_builds - 1

    def run_pass(self, begin_op: BeginOp) -> dict[str, object]:
        begin_op()
        try:
            return {"retest-all": self.rs.simulate.run_scenario(self.cfg)}
        except Exception as exc:
            return {"retest-all": OpFailure(repr(exc))}

    def check(self, outputs: dict[str, object]) -> dict[str, str]:
        if "retest-all" not in outputs:
            return {}
        why = check_report(self.rs, self.cfg, outputs["retest-all"], runs_everything=True)
        return {"retest-all": why} if why else {}


class HistoryCli:
    """In-process CLI verbs on files: generate, trace record, replay, check."""

    def __init__(self, rs, seed: int, work_root: Path):
        self.rs = rs
        self.dir = Path(tempfile.mkdtemp(prefix="history-cli-", dir=work_root))
        config = self.dir / "config.json"
        config.write_text(
            json.dumps(
                {
                    "seed": seed,
                    "n_tests": CLI_TESTS,
                    "n_builds": CLI_BUILDS,
                    "n_classes": CLI_CLASSES,
                }
            )
        )
        # A fixed window of about 40% of the first build's suite: durations
        # are uniform on 1..15 plus 0..5, a mean of 10.5 per test.
        self.window = 4 * CLI_TESTS
        self.files = {
            verb: str(self.dir / f"{verb}.json")
            for verb in ("generate", "trace-record", "trace-replay", "trace-check")
        }
        history, trace = self.files["generate"], self.files["trace-record"]
        window = ["--window", str(self.window)]
        self.argvs = {
            "generate": ["generate", "--config", str(config), "--out", history],
            "trace-record": ["trace", "record", "--history", history, "--strategy", "retecs",
                             *window, "--out", trace],
            "trace-replay": ["trace", "replay", "--history", history, "--trace", trace,
                             "--out", self.files["trace-replay"]],
            "trace-check": ["trace", "check", "--history", history, "--strategy", "retecs",
                            *window, "--out", self.files["trace-check"]],
        }
        self.transitions = len(self.argvs) * (CLI_BUILDS - 1)

    def run_pass(self, begin_op: BeginOp) -> dict[str, object]:
        out: dict[str, object] = {}
        for verb, argv in self.argvs.items():
            if any(isinstance(v, OpFailure) for v in out.values()):
                out[verb] = OpFailure("not run: an earlier verb failed")
                continue
            begin_op()
            try:
                code = self.rs.cli.main(argv)
            except (Exception, SystemExit) as exc:
                out[verb] = OpFailure(repr(exc))
                continue
            out[verb] = self.files[verb] if code == 0 else OpFailure(f"exit code {code}")
        return out

    def canonical(self, op: str, output) -> bytes:
        return Path(output).read_bytes()

    def check(self, outputs: dict[str, object]) -> dict[str, str]:
        # The files hold the last pass's output; a pass whose digests
        # differed from the first pass's has already failed.
        problems = {}
        loaded = {op: json.loads(Path(path).read_bytes()) for op, path in outputs.items()}
        history = loaded.get("generate")
        if history is None:
            return problems
        bundle, _ = self.rs.histio.parse_history(history)
        again = self.rs.histio.dumps_canonical(self.rs.histio.serialize_history(bundle))
        if again.encode() != Path(outputs["generate"]).read_bytes():
            problems["generate"] = "parse then serialize does not give the same bytes"
        elif len(history["builds"]) != CLI_BUILDS:
            problems["generate"] = f"{len(history['builds'])} builds, not {CLI_BUILDS}"
        tests = [{t["id"]: t["exectime"] + t["setup"] for t in b["tests"]} for b in history["builds"]]
        trace = loaded.get("trace-record")
        if trace is not None:
            why = self._check_trace(trace["tuples"], tests)
            if why:
                problems["trace-record"] = why
        replay = loaded.get("trace-replay")
        if replay is not None and trace is not None:
            steps = replay["steps"]
            if [s["schedule"] for s in steps] != [t["schedule"] for t in trace["tuples"]]:
                problems["trace-replay"] = "replayed schedules differ from the trace"
            elif any(
                s["total_cost"] != sum(durations[i] for i in s["schedule"])
                for s, durations in zip(steps, tests)
            ):
                problems["trace-replay"] = "replayed cost differs from the history's durations"
        check = loaded.get("trace-check")
        if check is not None and (
            check["all_verified"] is not True or len(check["builds"]) != CLI_BUILDS
        ):
            problems["trace-check"] = "trace check did not verify every build"
        return problems

    def _check_trace(self, tuples: list[dict], tests: list[dict[str, int]]) -> str | None:
        if len(tuples) != len(tests):
            return f"{len(tuples)} records for {len(tests)} builds"
        for record, prev, nxt in zip(tuples[1:], tests, tests[1:]):
            where = f"build {record['index']}"
            candidates = prev.keys() & nxt.keys()
            schedule = record["schedule"]
            if len(set(schedule)) != len(schedule) or not set(schedule) <= candidates:
                return f"{where}: schedule repeats a test or leaves the candidate set"
            if record["delta_tau"] != self.window:
                return f"{where}: delta_tau {record['delta_tau']} is not the window"
            if sum(nxt[i] for i in schedule) > self.window:
                return f"{where}: schedule exceeds delta_tau"
        return None

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


@dataclass(frozen=True)
class EngineCase:
    """Engine inputs for one transition that has at least one active fault."""

    index: int
    candidates: tuple
    ctx: object
    coverage: dict
    window: object
    exact_prefix: tuple
    exact_window: object
    brute_prefix: tuple
    brute_window: object


class TechniqueEngines:
    """Greedy and exact engines on the first transitions with an active fault."""

    def __init__(self, rs, seed: int, work_root: Path):
        self.rs = rs
        cfg = rs.simulate.ScenarioConfig(
            seed=seed,
            n_tests=ENGINE_TESTS,
            n_builds=ENGINE_BUILDS,
            fault_rate=ENGINE_FAULT_RATE,
        )
        bundle = rs.simulate.generate_chain(cfg)
        windows = rs.simulate.windows_for(cfg, bundle)
        eval_context = rs.simulate.scenario_eval_context(bundle)
        self.metrics = {
            name: rs.metrics.metric_by_name(name) for name in ("apfd", "fault-count", "coverage")
        }

        def half_of(prefix):
            return rs.budget.Rtw.of_budget(sum(t.duration for t in prefix) // 2)

        self.cases = []
        for (b_prev, b_next), window in zip(bundle.chain.pairs(), windows):
            # APFD is undefined without faults, so only transitions where a
            # fault becomes active are used.
            if not rs.simulate.active_faults(bundle, b_next.index):
                continue
            candidates = rs.model.ordered_candidates(b_prev, b_next)
            ctx = eval_context(b_prev, b_next, (), ())
            exact, brute = candidates[:EXACT_PREFIX], candidates[:BRUTEFORCE_PREFIX]
            self.cases.append(
                EngineCase(
                    index=b_next.index,
                    candidates=candidates,
                    ctx=ctx,
                    # A story no candidate covers (a feature without a test)
                    # is unsatisfiable by definition; minimize covers the rest.
                    coverage={s: tests for s, tests in ctx.coverage.items() if tests},
                    window=window,
                    exact_prefix=exact,
                    exact_window=half_of(exact),
                    brute_prefix=brute,
                    brute_window=half_of(brute),
                )
            )
            if len(self.cases) == ENGINE_CASES:
                break
        if len(self.cases) < ENGINE_CASES:
            raise RuntimeError(
                f"the generated chain has {len(self.cases)} transitions with an active fault,"
                f" fewer than {ENGINE_CASES}"
            )
        self.transitions = len(self.cases)

    def _ops(self, case: EngineCase):
        techniques, retecs, budget, m = (
            self.rs.techniques, self.rs.retecs, self.rs.budget, self.metrics
        )
        return (
            *(
                (f"rtp-greedy-{name}", techniques.rtp_prioritize,
                 (case.candidates, m[name]), {"engine": "greedy", "ctx": case.ctx})
                for name in ("apfd", "fault-count", "coverage")
            ),
            ("rtm-greedy", techniques.rtm_minimize,
             (case.candidates, case.coverage), {"engine": "greedy"}),
            ("scope", budget.scope, (case.candidates, case.window), {}),
            ("ttcp-exact", retecs.ttcp,
             (case.exact_prefix, m["apfd"], case.exact_window), {"engine": "exact", "ctx": case.ctx}),
            ("rtp-exact", techniques.rtp_prioritize,
             (case.exact_prefix, m["apfd"]), {"engine": "exact", "ctx": case.ctx}),
            ("scope-bruteforce", budget.scope_bruteforce,
             (case.brute_prefix, case.brute_window), {}),
        )

    def run_pass(self, begin_op: BeginOp) -> dict[str, object]:
        out: dict[str, object] = {}
        for case in self.cases:
            for label, fn, args, kwargs in self._ops(case):
                begin_op()
                try:
                    out[f"b{case.index:03d}.{label}"] = fn(*args, **kwargs)
                except Exception as exc:
                    out[f"b{case.index:03d}.{label}"] = OpFailure(repr(exc))
        return out

    def canonical(self, op: str, output) -> bytes:
        if isinstance(output, frozenset):
            return _json_bytes(sorted(output))
        if hasattr(output, "witness"):
            return _json_bytes([output.count, list(output.witness), output.total_cost])
        return _json_bytes([list(output.ids), output.total_cost, dict(output.meta)])

    def check(self, outputs: dict[str, object]) -> dict[str, str]:
        problems = {}
        for case in self.cases:
            key = f"b{case.index:03d}."
            results = {
                op[len(key):]: out for op, out in outputs.items() if op.startswith(key)
            }
            for label, why in self._check_case(case, results).items():
                problems[key + label] = why
        return problems

    def _check_case(self, case: EngineCase, results: dict[str, object]) -> dict[str, str]:
        rs, apfd = self.rs, self.metrics["apfd"]
        durations = {t.id: t.duration for t in case.candidates}
        ids = sorted(durations)
        problems = {}

        def fits(schedule_ids, total, window, pool) -> bool:
            budget = window.budget()
            return (
                len(set(schedule_ids)) == len(schedule_ids)
                and set(schedule_ids) <= pool
                and total == sum(durations[i] for i in schedule_ids)
                and (budget is None or total <= budget)
            )

        for name in ("apfd", "fault-count", "coverage"):
            got = results.get(f"rtp-greedy-{name}")
            if got is not None and (sorted(got.ids) != ids or got.total_cost != sum(durations.values())):
                problems[f"rtp-greedy-{name}"] = "order is not a permutation of the candidates"
        chosen = results.get("rtm-greedy")
        if chosen is not None and (
            not chosen <= durations.keys()
            or any(not (set(tests) & chosen) for tests in case.coverage.values())
        ):
            problems["rtm-greedy"] = "cover leaves the candidates or misses a requirement"
        got = results.get("scope")
        if got is not None and not (
            fits(got.witness, got.total_cost, case.window, durations.keys())
            and len(got.witness) == got.count
        ):
            problems["scope"] = "witness is not a feasible subset of the stated size"

        exact_ids = {t.id for t in case.exact_prefix}
        got = results.get("ttcp-exact")
        if got is not None:
            expected = rs.budget.scope(case.exact_prefix, case.exact_window).count
            if not fits(got.ids, got.total_cost, case.exact_window, exact_ids):
                problems["ttcp-exact"] = "schedule leaves its candidates or exceeds delta_tau"
            elif len(got.ids) != expected:
                problems["ttcp-exact"] = f"length {len(got.ids)} differs from scope count {expected}"
        got = results.get("rtp-exact")
        if got is not None:
            greedy = rs.techniques.rtp_prioritize(
                case.exact_prefix, apfd, engine="greedy", ctx=case.ctx
            )
            greedy_value = apfd.evaluate(greedy.ids, case.ctx)
            value = got.meta["value"]
            if sorted(got.ids) != sorted(exact_ids) or value != apfd.evaluate(got.ids, case.ctx):
                problems["rtp-exact"] = "order or value does not match its metric"
            elif value < greedy_value:
                problems["rtp-exact"] = f"exact value {value} below greedy {greedy_value}"
        got = results.get("scope-bruteforce")
        if got is not None:
            fast = rs.budget.scope(case.brute_prefix, case.brute_window)
            brute_ids = {t.id for t in case.brute_prefix}
            if (got.count, got.total_cost) != (fast.count, fast.total_cost) or not fits(
                got.witness, got.total_cost, case.brute_window, brute_ids
            ):
                problems["scope-bruteforce"] = "brute force and scope disagree"
        return problems

    def close(self) -> None:
        pass


WORKLOADS = {
    "chain-adaptive": ChainAdaptive,
    "chain-unbounded": ChainUnbounded,
    "history-cli": HistoryCli,
    "technique-engines": TechniqueEngines,
}
