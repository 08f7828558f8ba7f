"""Pluggable quality metrics over ordered test sequences.

A metric scores an ordered sequence of test ids against contextual data
(known faults, requirement coverage, observed failures). Higher is
better; every metric is deterministic for fixed inputs. The built-in
metrics also name the groups (faults or stories) they count, so greedy
prioritization ranks tests by the groups they newly hit, and each solves
its own exact argmax (``best_order``): given sorted, unique ids it returns
the lexicographically first order with the highest score, or raises what
the score would raise. APFD finds it by a dynamic program over the
subsets of the ids; fault count and coverage read only which tests ran,
so the ids' own order is already the first best one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Iterable, Mapping, Sequence

from .errors import ConfigurationError, UndefinedMetricError


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
    _check_apfd_defined(n, m)
    tf_sum = sum(first_detection_positions(order, faults).values())
    return (2 * n * m - 2 * tf_sum + m) / (2 * n * m)


def _check_apfd_defined(n: int, m: int) -> None:
    if m == 0:
        raise UndefinedMetricError("no faults to detect")
    if n == 0:
        raise UndefinedMetricError("empty order cannot be scored against faults")


def _best_apfd_order(
    ids: Sequence[str], faults: Mapping[str, AbstractSet[str]]
) -> tuple[str, ...]:
    """The lexicographically first order of ``ids`` (sorted, unique) with the highest APFD.

    For a fixed n and m, APFD falls strictly as the sum of first-detection
    positions rises (distinct sums are distinct numerators over one
    denominator). That sum is also the sum, over the order's n+1 prefixes
    from the empty one to the full one, of the faults that no test in the
    prefix detects: a fault first detected at position p is undetected by
    p prefixes, an undetected one by all n+1. So the argmax is a shortest
    path over the 2^n subsets: bit i stands for ``ids[i]``, ``unhit(S)``
    counts the faults no test in S detects, and ``rest[S]`` is the least
    sum of ``unhit`` over the prefixes from S to the full set. Walking up
    from the empty set and taking the smallest index that stays on a
    shortest path gives the lexicographically first optimum, the order
    that enumerating every permutation and keeping only strict
    improvements returns. Cost: O(n 2^n) plus one pass over the
    detectors. Raises as :func:`apfd` does.
    """
    n = len(ids)
    _check_apfd_defined(n, len(faults))
    bit = {test_id: 1 << i for i, test_id in enumerate(ids)}
    full = (1 << n) - 1
    # within[T]: faults whose detectors among ``ids`` all lie in T, so unhit(S) = within[full ^ S].
    within = [0] * (full + 1)
    for detectors in faults.values():
        within[sum(bit[t] for t in detectors if t in bit)] += 1
    for b in bit.values():
        for mask in range(full + 1):
            if mask & b:
                within[mask] += within[mask ^ b]
    rest = [0] * (full + 1)
    for mask in range(full, -1, -1):
        rest[mask] = within[full ^ mask] + min(
            (rest[mask | b] for b in bit.values() if not mask & b), default=0
        )
    order: list[str] = []
    mask = 0
    while mask != full:
        target = rest[mask] - within[full ^ mask]
        test_id = next(t for t, b in bit.items() if not mask & b and rest[mask | b] == target)
        order.append(test_id)
        mask |= bit[test_id]
    return tuple(order)


@dataclass(frozen=True)
class QualityMetric:
    """A named evaluation function over ordered test sequences.

    ``groups``, if set, maps a context to group id -> the tests hitting it,
    and for any prefix the score of ``prefix + [t]`` rises with the number
    of groups ``t`` newly hits, so greedy prioritization ranks by that count.
    ``best_order``, if set, takes sorted, unique ids and a context and
    returns the lexicographically first order of those ids with the
    highest ``fn``, raising what ``fn`` would raise; exact prioritization
    calls it in place of scoring every permutation.
    """

    name: str
    fn: Callable[[Sequence[str], MetricContext], float]
    groups: Callable[[MetricContext], Mapping[str, AbstractSet[str]]] | None = None
    best_order: Callable[[Sequence[str], MetricContext], tuple[str, ...]] | None = None

    def evaluate(self, order: Sequence[str], ctx: MetricContext) -> float:
        return self.fn(order, ctx)


def apfd_metric() -> QualityMetric:
    def faults(ctx: MetricContext) -> Mapping[str, AbstractSet[str]]:
        if not ctx.faults:
            raise UndefinedMetricError("no faults to detect")
        return ctx.faults

    return QualityMetric(
        "apfd",
        lambda order, ctx: apfd(order, ctx.faults),
        faults,
        lambda ids, ctx: _best_apfd_order(ids, ctx.faults),
    )


def _as_given(ids: Sequence[str], ctx: MetricContext) -> tuple[str, ...]:
    """``best_order`` of a metric that reads only which tests ran: every order ties."""
    return tuple(ids)


def fault_count_metric() -> QualityMetric:
    """Number of known faults detected by at least one test in the order."""

    def value(order: Sequence[str], ctx: MetricContext) -> float:
        executed = set(order)
        return float(sum(1 for detectors in ctx.faults.values() if detectors & executed))

    return QualityMetric("fault-count", value, lambda ctx: ctx.faults, _as_given)


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

    return QualityMetric("coverage", value, lambda ctx: ctx.coverage, _as_given)


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
