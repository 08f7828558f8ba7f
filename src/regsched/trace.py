"""Run a scheduling strategy once per build pair, record it, replay it.

A :class:`Transition` is one build pair with its window and its priced
candidates (the tests both builds hold, in id order). It is derived once
per pair, and a strategy is a ``plan(transition) -> Schedule`` that
emits a budget-feasible schedule plus an ``observe(step)`` that learns
from the :class:`TransitionStep` the schedule produced. Any such
strategy can be captured losslessly as one record per build: the program
id, story ids, test ids, the window budget, the realized quality value,
and the exact executed ordering. :func:`run_side_by_side` is the one
step loop, for one or many strategies over one pass of the pairs, and
:func:`run_transitions` its one-strategy case; each step holds the
transition, the priced schedule, the verdicts and the quality value, and
:meth:`Trace.of_run` alone turns steps into records. Replaying them
against the same chain reproduces the original schedules and verdicts
bit for bit, and enforces the same per-build contract as recording: a
schedule outside its candidates or over its ``delta_tau`` is rejected.
:func:`check_completeness` tests that claim on one run: it replays each
build's record as its step passes and compares the build's schedule,
verdicts, budget and quality value with what ran. Every consumer reads a
step once, as it passes; nothing here keeps a whole run's steps. The
trace file format lives in :mod:`regsched.histio`; this module knows no
JSON.

Build 1 has no predecessor, so its record carries an empty schedule, a
zero budget, and no quality value. Records with an unbounded budget are
permitted and flagged via :attr:`TraceTuple.is_unbounded`; strictly
time-boxed pipelines can reject them as policy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Protocol, Sequence

from .budget import Rtw, Schedule
from .errors import (
    BuildOrderError,
    InfeasibleScheduleError,
    TraceDivergenceError,
    UndefinedMetricError,
)
from .metrics import MetricContext, QualityMetric
from .model import Build, BuildChain, TestCase, ordered_candidates
from .regall import Verdict, failed_ids, run_tests

# Builds an evaluation context for scoring what actually ran.
EvalContext = Callable[[Build, Build, Sequence[str], Sequence[Verdict]], MetricContext]


@dataclass(frozen=True)
class Transition:
    """One build pair and its window: what every strategy plans from.

    ``candidates`` are the tests both builds hold, as ``b_next``'s
    instances, in id order; ``durations`` maps each candidate's id to its
    cost in the same order.
    """

    b_prev: Build
    b_next: Build
    window: Rtw
    candidates: tuple[TestCase, ...]
    durations: Mapping[str, int]

    @classmethod
    def of(cls, b_prev: Build, b_next: Build, window: Rtw) -> "Transition":
        candidates = ordered_candidates(b_prev, b_next)
        return cls(b_prev, b_next, window, candidates, {t.id: t.exectime + t.setup for t in candidates})


class Strategy(Protocol):
    """A per-build scheduling strategy.

    ``plan`` must return a schedule drawn from the transition's candidates
    whose total duration fits its window. ``observe`` is called with the
    step that ran the schedule so stateful strategies can learn; stateless
    ones may ignore it.
    """

    name: str

    def plan(self, transition: Transition) -> Schedule: ...

    def observe(self, step: TransitionStep) -> None: ...


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
        scheduled = set(self.schedule)
        if len(scheduled) != len(self.schedule):
            raise ValueError("schedule contains duplicate test ids")
        extra = scheduled.difference(self.test_ids)
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

    @classmethod
    def of_run(cls, chain: BuildChain, steps: Iterable[TransitionStep]) -> "Trace":
        """Build 1's empty record followed by one record per step of the chain's run.

        ``steps`` is read once, to the end, and no step is kept.
        """
        records = (_snapshot(step.transition.b_next, step) for step in steps)
        return cls((*map(_snapshot, chain.builds[:1]), *records))


def _default_eval_context(
    b_prev: Build, b_next: Build, executed: Sequence[str], verdicts: Sequence[Verdict]
) -> MetricContext:
    return MetricContext.from_failures(failed_ids(verdicts))


def _quality(metric: QualityMetric, ids: Sequence[str], ctx: MetricContext) -> float | None:
    """The metric's value for ``ids``, or ``None`` where the metric is undefined."""
    try:
        return metric.evaluate(ids, ctx)
    except UndefinedMetricError:
        return None


def _snapshot(build: Build, step: TransitionStep | None = None) -> TraceTuple:
    """``build``'s record of ``step``; with no step, build 1's empty record."""
    return TraceTuple(
        index=build.index,
        program_id=build.program.id,
        spec_ids=tuple(sorted(build.story_ids())),
        test_ids=tuple(sorted(build.test_ids())),
        delta_tau=step.transition.window.budget() if step else 0,
        q_value=step.q_value if step else None,
        schedule=step.schedule.ids if step else (),
    )


def _contract_breach(
    ids: Sequence[str], durations: Mapping[str, int], budget: int | None
) -> tuple[str, str] | None:
    """The field a schedule breaks, and why: a test outside ``durations`` or cost over budget."""
    outside = set(ids) - durations.keys()
    if outside:
        return "schedule", f"schedule leaves the candidate set: {sorted(outside)}"
    cost = sum(map(durations.__getitem__, ids))
    if budget is not None and cost > budget:
        return "delta_tau", f"schedule cost {cost} exceeds window budget {budget}"
    return None


@dataclass(frozen=True)
class TransitionStep:
    """One build pair, run once: what every consumer of the run reads.

    ``schedule`` is priced from the transition's durations, not taken
    from the strategy's total; ``q_value`` is None if the metric is undefined.
    """

    transition: Transition
    schedule: Schedule
    verdicts: tuple[Verdict, ...]
    q_value: float | None


def run_side_by_side(
    chain: BuildChain,
    runs: Sequence[tuple[Strategy, Sequence[Rtw], QualityMetric]],
    *,
    eval_context: EvalContext | None = None,
) -> Iterator[tuple[TransitionStep, ...]]:
    """Run each ``(strategy, windows, metric)`` over one pass of the pairs: a step tuple per pair.

    ``windows`` supplies one window per pair. Build indices must be
    consecutive (:class:`BuildOrderError` otherwise). A strategy that
    emits a schedule exceeding its window, or tests outside the candidate
    set, is rejected immediately with the offending build named. Errors
    come in (pair, run) order. A pair's candidates and prices are derived
    once, and kept for later pairs holding the same two test-set objects.
    """
    n_pairs = max(len(chain) - 1, 0)
    for _, windows, _ in runs:
        if len(windows) != n_pairs:
            raise ValueError(f"need one window per consecutive pair: {n_pairs}, got {len(windows)}")
    build_context = eval_context or _default_eval_context
    last: Transition | None = None
    for (b_prev, b_next), windows in zip(chain.pairs(), zip(*(w for _, w, _ in runs))):
        if b_next.index != b_prev.index + 1:
            raise BuildOrderError(
                f"transitions need consecutive builds, got {b_prev.index} -> {b_next.index}"
            )
        if not (last and last.b_prev.tests is b_prev.tests and last.b_next.tests is b_next.tests):
            last = Transition.of(b_prev, b_next, windows[0])
        steps = []
        for (strategy, _, metric), window in zip(runs, windows):
            transition = Transition(b_prev, b_next, window, last.candidates, last.durations)
            schedule = strategy.plan(transition)
            breach = _contract_breach(schedule.ids, transition.durations, window.budget())
            if breach:
                raise InfeasibleScheduleError(b_next.index, breach[1])
            verdicts = run_tests(b_prev, b_next, schedule.ids)
            q = _quality(metric, schedule.ids, build_context(b_prev, b_next, schedule.ids, verdicts))
            priced = Schedule.from_ids(schedule.ids, transition.durations, **schedule.meta)
            step = TransitionStep(transition, priced, verdicts, q)
            strategy.observe(step)
            steps.append(step)
        yield tuple(steps)


def run_transitions(
    strategy: Strategy,
    chain: BuildChain,
    windows: Sequence[Rtw],
    metric: QualityMetric,
    *,
    eval_context: EvalContext | None = None,
) -> Iterator[TransitionStep]:
    """Run a strategy over the chain, one step per pair: :func:`run_side_by_side` with one run."""
    for (step,) in run_side_by_side(chain, ((strategy, windows, metric),), eval_context=eval_context):
        yield step


def record_trace(
    strategy: Strategy,
    chain: BuildChain,
    windows: Sequence[Rtw],
    metric: QualityMetric,
    *,
    eval_context: EvalContext | None = None,
) -> Trace:
    """Run a strategy over the chain, capturing one record per build.

    The capture is lossless: each record stores the literal executed
    ordering and the quality value realized for it.
    """
    steps = run_transitions(strategy, chain, windows, metric, eval_context=eval_context)
    return Trace.of_run(chain, steps)


@dataclass(frozen=True)
class ReplayStep:
    """One replayed build: the recorded schedule and its recomputed verdicts."""

    index: int
    schedule: Schedule
    verdicts: tuple[Verdict, ...]


def _check_snapshot(record: TraceTuple, build: Build) -> None:
    # Read off the build, not through the recorder's _snapshot, so a recorder bug shows.
    for name, value in (
        ("index", build.index),
        ("program_id", build.program.id),
        ("spec_ids", tuple(sorted(build.story_ids()))),
        ("test_ids", tuple(sorted(build.test_ids()))),
    ):
        if getattr(record, name) != value:
            raise TraceDivergenceError(build.index, name)


def _replay(record: TraceTuple, prev: Build | None, build: Build) -> ReplayStep:
    """Re-execute one record against ``build``; ``prev`` is None for the first build."""
    _check_snapshot(record, build)
    durations = Transition.of(prev, build, Rtw.of_budget(record.delta_tau)).durations if prev else {}
    breach = _contract_breach(record.schedule, durations, record.delta_tau)
    if breach:
        raise TraceDivergenceError(build.index, breach[0])
    schedule = Schedule.from_ids(record.schedule, durations, technique="replay")
    verdicts = run_tests(prev, build, record.schedule) if prev else ()
    return ReplayStep(record.index, schedule, verdicts)


def replay_trace(trace: Trace, chain: BuildChain) -> tuple[ReplayStep, ...]:
    """Re-execute a recorded trace against a chain.

    Snapshots are validated build by build (ids only; behavior maps are
    free to differ, which is what makes replay useful for spotting
    outcome drift), and so is the per-build contract: a schedule outside
    the candidates or over ``delta_tau`` raises rather than runs. The
    first record replays as an empty run since build 1 has no predecessor.
    """
    if len(trace) != len(chain):
        raise TraceDivergenceError(min(len(trace), len(chain)) + 1, "length")
    return tuple(map(_replay, trace.tuples, (None, *chain.builds), chain.builds))


@dataclass(frozen=True)
class BuildVerification:
    """One build's comparison of the live run with the replay of its record."""

    build_index: int
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass(frozen=True)
class CompletenessReport:
    """Per-build verification that a recording reproduces the live run."""

    builds: tuple[BuildVerification, ...]

    @property
    def all_verified(self) -> bool:
        return all(b.ok for b in self.builds)


def check_completeness(
    strategy: Strategy,
    chain: BuildChain,
    windows: Sequence[Rtw],
    metric: QualityMetric,
    *,
    eval_context: EvalContext | None = None,
) -> CompletenessReport:
    """Verify, build by build, that the recording reproduces the live run.

    Runs the strategy once and replays each build's record as its step
    passes (a record that breaks its snapshot or contract raises
    :class:`TraceDivergenceError`); no step or record is kept. As in
    :func:`record_trace`, a chain whose first build is not 1 is a
    ``ValueError``.
    Each build's live schedule and verdicts must equal the replayed ones,
    its recorded ``delta_tau`` the live window's budget (0 for build 1),
    and its recorded ``q_value`` the one the metric and eval context give
    the replayed verdicts (``None`` for build 1). A mismatch names the field.
    """
    steps = run_transitions(strategy, chain, windows, metric, eval_context=eval_context)
    first = ((None, build, None) for build in chain.builds[:1])
    pairs = ((s.transition.b_prev, s.transition.b_next, s) for s in steps)
    build_context = eval_context or _default_eval_context
    names = ("schedule", "verdicts", "delta_tau", "q_value")
    results: list[BuildVerification] = []
    for prev, build, step in itertools.chain(first, pairs):
        record = _snapshot(build, step)
        if prev is None:
            Trace((record,))  # indices must start at 1; the run keeps them consecutive
        again = _replay(record, prev, build)
        ids, verdicts, q = again.schedule.ids, again.verdicts, None
        live = ((), (), 0)
        if step:
            live = (step.schedule.ids, step.verdicts, step.transition.window.budget())
            q = _quality(metric, ids, build_context(prev, build, ids, verdicts))
        compared = zip(names, (*live, record.q_value), (ids, verdicts, record.delta_tau, q))
        results.append(BuildVerification(record.index, tuple(n for n, a, b in compared if a != b)))
    return CompletenessReport(tuple(results))
