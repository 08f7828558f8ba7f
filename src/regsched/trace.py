"""Record a scheduling strategy's run as per-build tuples, then replay it.

Any per-build strategy - something that receives the build's program
version, active stories, candidate tests, and window, and emits a
budget-feasible schedule - can be captured losslessly as one record per
build: the program id, story ids, test ids, the window budget, the
realized quality value, and the exact executed ordering. Replaying the
records against the same chain reproduces the original schedules and
verdicts bit for bit, which makes strategies comparable, auditable, and
swappable after the fact.

Build 1 has no predecessor, so its record carries an empty schedule, a
zero budget, and no quality value. Records with an unbounded budget are
permitted and flagged via :attr:`TraceTuple.is_unbounded`; strictly
time-boxed pipelines can reject them as policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, runtime_checkable

from .budget import Rtw, Schedule
from .errors import (
    HistoryFormatError,
    InfeasibleScheduleError,
    TraceDivergenceError,
    UndefinedMetricError,
)
from .metrics import MetricContext, QualityMetric
from .model import Build, BuildChain, TestCase, ordered_candidates
from .regall import Verdict, run_tests

# Builds an evaluation context for scoring what actually ran.
EvalContext = Callable[[Build, Build, Sequence[str], Sequence[Verdict]], MetricContext]


@runtime_checkable
class Strategy(Protocol):
    """A per-build scheduling strategy.

    ``plan`` must return a schedule drawn from the candidate set whose
    total duration fits the window. ``observe`` is called after execution
    so stateful strategies can learn; stateless ones may ignore it.
    """

    name: str

    def plan(
        self,
        b_prev: Build,
        b_next: Build,
        candidates: tuple[TestCase, ...],
        window: Rtw,
    ) -> Schedule: ...

    def observe(
        self,
        build_index: int,
        executed: Schedule,
        verdicts: tuple[Verdict, ...],
        q_value: float | None,
    ) -> None: ...


@dataclass(frozen=True)
class TraceTuple:
    """One build's record: snapshots, budget, quality, executed order."""

    index: int
    program_id: int
    spec_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    delta_tau: int | None
    q_value: float | None
    schedule: tuple[str, ...]

    def __post_init__(self) -> None:
        extra = set(self.schedule) - set(self.test_ids)
        if extra:
            raise ValueError(f"schedule references tests outside the snapshot: {sorted(extra)}")

    @property
    def is_unbounded(self) -> bool:
        return self.delta_tau is None


@dataclass(frozen=True)
class Trace:
    """Per-build records with contiguous indices starting at 1."""

    tuples: tuple[TraceTuple, ...]

    def __post_init__(self) -> None:
        for position, record in enumerate(self.tuples, start=1):
            if record.index != position:
                raise ValueError(
                    f"trace indices must run 1..n, got {record.index} at position {position}"
                )

    def __len__(self) -> int:
        return len(self.tuples)

    def to_dict(self) -> dict:
        return {
            "tuples": [
                {
                    "index": t.index,
                    "program_id": t.program_id,
                    "spec_ids": list(t.spec_ids),
                    "test_ids": list(t.test_ids),
                    "delta_tau": "inf" if t.delta_tau is None else t.delta_tau,
                    "q_value": t.q_value,
                    "schedule": list(t.schedule),
                }
                for t in self.tuples
            ]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Trace":
        where = "trace data"
        try:
            records = []
            for position, row in enumerate(data["tuples"], start=1):
                where = f"trace record {position}"
                delta = row["delta_tau"]
                records.append(
                    TraceTuple(
                        index=row["index"],
                        program_id=row["program_id"],
                        spec_ids=tuple(row["spec_ids"]),
                        test_ids=tuple(row["test_ids"]),
                        delta_tau=None if delta == "inf" else int(delta),
                        q_value=row["q_value"],
                        schedule=tuple(row["schedule"]),
                    )
                )
            where = "trace data"
            return cls(tuple(records))
        except (KeyError, TypeError, ValueError) as exc:
            raise HistoryFormatError(f"malformed {where}: {exc}") from exc


def _default_eval_context(
    b_prev: Build, b_next: Build, executed: Sequence[str], verdicts: Sequence[Verdict]
) -> MetricContext:
    return MetricContext.from_verdicts(tuple(verdicts))


def _base_tuple(build: Build) -> TraceTuple:
    return TraceTuple(
        index=build.index,
        program_id=build.program.id,
        spec_ids=tuple(sorted(build.story_ids())),
        test_ids=tuple(sorted(build.test_ids())),
        delta_tau=0,
        q_value=None,
        schedule=(),
    )


def record_trace(
    strategy: Strategy,
    chain: BuildChain,
    windows: Sequence[Rtw],
    metric: QualityMetric,
    *,
    eval_context: EvalContext | None = None,
) -> Trace:
    """Run a strategy over the chain, capturing one record per build.

    ``windows`` supplies one window per consecutive build pair. The
    capture is lossless: each record stores the literal executed ordering
    and the quality value realized for it. A strategy that emits a
    schedule exceeding its window, or tests outside the candidate set, is
    rejected immediately with the offending build named.
    """
    if len(windows) != max(len(chain) - 1, 0):
        raise ValueError(
            f"need one window per consecutive pair: {max(len(chain) - 1, 0)}, got {len(windows)}"
        )
    build_context = eval_context or _default_eval_context
    records: list[TraceTuple] = []
    if chain.builds:
        records.append(_base_tuple(chain.builds[0]))
    for (b_prev, b_next), window in zip(chain.pairs(), windows):
        candidates = ordered_candidates(b_prev, b_next)
        durations = {t.id: t.duration for t in candidates}
        schedule = strategy.plan(b_prev, b_next, candidates, window)
        outside = set(schedule.ids) - set(durations)
        if outside:
            raise InfeasibleScheduleError(
                b_next.index, f"schedule leaves the candidate set: {sorted(outside)}"
            )
        actual_cost = sum(durations[i] for i in schedule.ids)
        budget = window.budget()
        if budget is not None and actual_cost > budget:
            raise InfeasibleScheduleError(
                b_next.index, f"schedule cost {actual_cost} exceeds window budget {budget}"
            )
        verdicts = run_tests(b_prev, b_next, schedule.ids)
        ctx = build_context(b_prev, b_next, schedule.ids, verdicts)
        try:
            q = metric.evaluate(schedule.ids, ctx)
        except UndefinedMetricError:
            q = None
        strategy.observe(b_next.index, schedule, verdicts, q)
        records.append(
            TraceTuple(
                index=b_next.index,
                program_id=b_next.program.id,
                spec_ids=tuple(sorted(b_next.story_ids())),
                test_ids=tuple(sorted(b_next.test_ids())),
                delta_tau=budget,
                q_value=q,
                schedule=schedule.ids,
            )
        )
    return Trace(tuple(records))


@dataclass(frozen=True)
class ReplayStep:
    """One replayed build: the recorded schedule and its recomputed verdicts."""

    index: int
    schedule: Schedule
    verdicts: tuple[Verdict, ...]


def _check_snapshot(record: TraceTuple, build: Build) -> None:
    if record.index != build.index:
        raise TraceDivergenceError(build.index, "index")
    if record.program_id != build.program.id:
        raise TraceDivergenceError(build.index, "program_id")
    if record.spec_ids != tuple(sorted(build.story_ids())):
        raise TraceDivergenceError(build.index, "spec_ids")
    if record.test_ids != tuple(sorted(build.test_ids())):
        raise TraceDivergenceError(build.index, "test_ids")


def replay_trace(trace: Trace, chain: BuildChain) -> tuple[ReplayStep, ...]:
    """Re-execute a recorded trace against a chain.

    Snapshots are validated build by build (ids only; behavior maps are
    free to differ, which is what makes replay useful for spotting
    outcome drift). The first record replays as an empty run since build
    1 has no predecessor.
    """
    if len(trace) != len(chain):
        raise TraceDivergenceError(
            min(len(trace), len(chain)) + 1, "length"
        )
    steps: list[ReplayStep] = []
    for position, record in enumerate(trace.tuples):
        build = chain.builds[position]
        _check_snapshot(record, build)
        if position == 0:
            steps.append(ReplayStep(record.index, Schedule((), 0), ()))
            continue
        prev = chain.builds[position - 1]
        durations = {t.id: t.duration for t in build.tests}
        schedule = Schedule.from_ids(record.schedule, durations, technique="replay")
        verdicts = run_tests(prev, build, record.schedule)
        steps.append(ReplayStep(record.index, schedule, verdicts))
    return tuple(steps)


@dataclass(frozen=True)
class BuildVerification:
    """Field-by-field comparison result for one build's record."""

    build_index: int
    ok: bool
    mismatches: tuple[str, ...]


@dataclass(frozen=True)
class CompletenessReport:
    """Per-build verification that a recording captures the live run."""

    builds: tuple[BuildVerification, ...]

    @property
    def all_verified(self) -> bool:
        return all(b.ok for b in self.builds)


def check_completeness(
    strategy_factory: Callable[[], Strategy],
    chain: BuildChain,
    windows: Sequence[Rtw],
    metric: QualityMetric,
    *,
    eval_context: EvalContext | None = None,
) -> CompletenessReport:
    """Verify, build by build, that the recorded tuples match a live run.

    Records the strategy once, runs a second fresh instance live, and
    compares every field of every record. Any mismatch marks that build
    failed; for the deterministic built-in strategies a failure indicates
    a bug in the recording machinery, not an acceptable outcome.
    """
    recorded = record_trace(
        strategy_factory(), chain, windows, metric, eval_context=eval_context
    )
    live = record_trace(
        strategy_factory(), chain, windows, metric, eval_context=eval_context
    )
    results: list[BuildVerification] = []
    for rec, live_rec in zip(recorded.tuples, live.tuples):
        mismatches = tuple(
            name
            for name in ("program_id", "spec_ids", "test_ids", "delta_tau", "q_value", "schedule")
            if getattr(rec, name) != getattr(live_rec, name)
        )
        results.append(BuildVerification(rec.index, not mismatches, mismatches))
    return CompletenessReport(tuple(results))
