"""Pluggable quality metrics over ordered test sequences.

A metric scores an ordered sequence of test ids against contextual data
(known faults, requirement coverage, observed failures). Higher is
better; every metric is deterministic for fixed inputs. The built-in
metrics also name the groups (faults or stories) they count, so greedy
prioritization ranks tests by the groups they newly hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Iterable, Mapping, Sequence

from .errors import ConfigurationError, UndefinedMetricError
from .regall import Verdict, failed_ids


@dataclass(frozen=True)
class MetricContext:
    """Data a metric may consult when scoring an order.

    ``faults`` maps a fault id to the tests able to detect it;
    ``coverage`` maps a requirement (story id) to the tests fulfilling it.
    """

    faults: Mapping[str, frozenset[str]] = field(default_factory=dict)
    coverage: Mapping[str, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def from_failures(cls, test_ids: Iterable[str]) -> "MetricContext":
        """One fault ``fail:<id>`` per failed test, detected by that test alone."""
        return cls(faults={f"fail:{t}": frozenset({t}) for t in test_ids})

    @classmethod
    def from_verdicts(cls, verdicts: Sequence[Verdict]) -> "MetricContext":
        """:meth:`from_failures` over the inconsistent tests, in verdict order."""
        return cls.from_failures(failed_ids(verdicts))


def first_detection_positions(
    order: Sequence[str], faults: Mapping[str, AbstractSet[str]]
) -> dict[str, int]:
    """1-based position of each fault's first detecting test in the order.

    Faults detected by no test in the order get position ``len(order)+1``.
    A test repeated in the order counts at its first position.
    """
    position = dict(zip(reversed(order), range(len(order), 0, -1)))
    sentinel = len(order) + 1
    return {
        fault_id: min((position[t] for t in detectors if t in position), default=sentinel)
        for fault_id, detectors in faults.items()
    }


def apfd(order: Sequence[str], faults: Mapping[str, AbstractSet[str]]) -> float:
    """Average Percentage of Faults Detected for an ordered sequence.

    APFD = 1 - (sum of first-detection positions) / (n * m) + 1 / (2n)
    with n the order length and m the fault count. Undetected faults
    contribute position n+1, so truncated schedules are penalized rather
    than rejected. The integer ratio (2nm - 2*sum + m) / (2nm) is rounded
    once, so reference values reproduce exactly.

    Undefined (raises) for an empty order with faults present, and when
    there are no faults at all.
    """
    n = len(order)
    m = len(faults)
    if m == 0:
        raise UndefinedMetricError("no faults to detect")
    if n == 0:
        raise UndefinedMetricError("empty order cannot be scored against faults")
    tf_sum = sum(first_detection_positions(order, faults).values())
    return (2 * n * m - 2 * tf_sum + m) / (2 * n * m)


@dataclass(frozen=True)
class QualityMetric:
    """A named evaluation function over ordered test sequences.

    ``groups``, if set, maps a context to group id -> the tests hitting it,
    and for any prefix the score of ``prefix + [t]`` rises with the number
    of groups ``t`` newly hits, so greedy prioritization ranks by that count.
    """

    name: str
    fn: Callable[[Sequence[str], MetricContext], float]
    groups: Callable[[MetricContext], Mapping[str, AbstractSet[str]]] | None = None

    def evaluate(self, order: Sequence[str], ctx: MetricContext) -> float:
        return self.fn(order, ctx)


def apfd_metric() -> QualityMetric:
    def faults(ctx: MetricContext) -> Mapping[str, AbstractSet[str]]:
        if not ctx.faults:
            raise UndefinedMetricError("no faults to detect")
        return ctx.faults

    return QualityMetric("apfd", lambda order, ctx: apfd(order, ctx.faults), faults)


def fault_count_metric() -> QualityMetric:
    """Number of known faults detected by at least one test in the order."""

    def value(order: Sequence[str], ctx: MetricContext) -> float:
        executed = set(order)
        return float(sum(1 for detectors in ctx.faults.values() if detectors & executed))

    return QualityMetric("fault-count", value, lambda ctx: ctx.faults)


def coverage_metric() -> QualityMetric:
    """Fraction of requirements fulfilled by some test in the order.

    Vacuously 1.0 when the context lists no requirements.
    """

    def value(order: Sequence[str], ctx: MetricContext) -> float:
        if not ctx.coverage:
            return 1.0
        executed = set(order)
        hit = sum(1 for tests in ctx.coverage.values() if tests & executed)
        return hit / len(ctx.coverage)

    return QualityMetric("coverage", value, lambda ctx: ctx.coverage)


_METRICS: dict[str, Callable[[], QualityMetric]] = {
    "apfd": apfd_metric,
    "fault-count": fault_count_metric,
    "coverage": coverage_metric,
}


def metric_by_name(name: str) -> QualityMetric:
    try:
        return _METRICS[name]()
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown metric {name!r}; known: {sorted(_METRICS)}", field="metric"
        ) from None
