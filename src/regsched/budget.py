"""Regression-test windows and the budget-feasible scope function.

A window is the interval between a build becoming ready and the moment
regression testing must finish. Its budget prices how many candidate
tests can run. ``scope`` answers the question exactly: the maximum
number of candidates whose total cost fits the budget, together with
one witness subset. ``scope_bruteforce`` is an independent exhaustive
oracle kept deliberately naive for cross-checking.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Mapping

from .errors import ConfigurationError, EngineLimitError, InvalidCostError
from .model import TestCase


@dataclass(frozen=True)
class Rtw:
    """A regression-test window ``[start, end]`` in integer microunits.

    ``end`` may be ``None``, the distinguished unbounded case: no budget
    constraint at all, not a large sentinel number.
    """

    start: int
    end: int | None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("window start must be non-negative")
        if self.end is not None and self.end < self.start:
            raise ValueError("window end precedes its start")

    @classmethod
    def unbounded(cls) -> "Rtw":
        return cls(0, None)

    @classmethod
    def of_budget(cls, budget: int | None) -> "Rtw":
        """A window starting at 0 with the given budget (None = unbounded)."""
        return cls(0, budget)

    @property
    def is_unbounded(self) -> bool:
        return self.end is None

    def budget(self) -> int | None:
        """The available duration, or None when unbounded."""
        if self.end is None:
            return None
        return self.end - self.start


@dataclass(frozen=True)
class ScopeResult:
    """Maximum feasible cardinality plus one witness subset."""

    count: int
    witness: tuple[str, ...]
    total_cost: int


@dataclass(frozen=True)
class Schedule:
    """An ordered, duplicate-free list of test ids with its total cost.

    ``meta`` records the producing technique and its parameters; it never
    participates in scheduling decisions. Schedules produced under a
    bounded window always satisfy ``total_cost <= budget``.
    """

    ids: tuple[str, ...]
    total_cost: int
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("schedule contains duplicate test ids")

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def empty(cls, **meta: object) -> "Schedule":
        return cls((), 0, dict(meta))

    @classmethod
    def from_ids(
        cls, ids: Iterable[str], durations: Mapping[str, int], **meta: object
    ) -> "Schedule":
        ordered = tuple(ids)
        return cls(ordered, sum(map(durations.__getitem__, ordered)), dict(meta))


def feasible_prefix(
    ids: Iterable[str], durations: Mapping[str, int], window: Rtw
) -> tuple[tuple[str, ...], int]:
    """Longest prefix of ``ids`` whose cumulative duration fits the window.

    Durations are non-negative, so the cut bisects the running totals.
    Every id must be priced, after the cut too (``KeyError`` otherwise).
    """
    ordered = tuple(ids)
    totals = tuple(accumulate(map(durations.__getitem__, ordered)))
    budget = window.budget()
    n = len(ordered) if budget is None else bisect_right(totals, budget)
    return ordered[:n], totals[n - 1] if n else 0


def durations_by_id(candidates: Iterable[TestCase]) -> dict[str, int]:
    """Each candidate's duration keyed by its id, in candidate order.

    A schedule holds a test at most once, so a repeated id raises
    :class:`ConfigurationError` naming ``candidates``.
    """
    durations: dict[str, int] = {}
    for t in candidates:
        if t.id in durations:
            raise ConfigurationError(f"test {t.id!r} is repeated", field="candidates")
        durations[t.id] = t.duration
    return durations


def _priced(candidates: Iterable[TestCase]) -> dict[str, int]:
    """:func:`durations_by_id`; a zero-cost test raises ``InvalidCostError`` naming the smallest."""
    durations = durations_by_id(candidates)
    free = [test_id for test_id, d in durations.items() if d == 0]
    if free:
        raise InvalidCostError(f"test {min(free)!r} has zero total duration")
    return durations


def scope(candidates: Iterable[TestCase], window: Rtw) -> ScopeResult:
    """Largest number of candidates whose total cost fits the window.

    Exact by a per-cardinality minimal-cost argument: among all subsets
    of size k, the k cheapest tests minimize total cost (swapping any
    member for an unused cheaper test never raises the sum), so the
    cardinality -> minimal-cost table is the prefix-sum of the costs
    sorted ascending. The answer is the longest affordable prefix.

    The witness is deterministic: equal-cost tests are taken in id
    order. An unbounded window admits the whole candidate set. A repeated
    id raises ``ConfigurationError``; a zero-cost test ``InvalidCostError``.
    """
    durations = _priced(candidates)
    cheapest_first = sorted(durations, key=lambda test_id: (durations[test_id], test_id))
    chosen, total = feasible_prefix(cheapest_first, durations, window)
    return ScopeResult(count=len(chosen), witness=tuple(sorted(chosen)), total_cost=total)


def scope_bruteforce(candidates: Iterable[TestCase], window: Rtw) -> ScopeResult:
    """Exhaustive oracle for :func:`scope`: enumerate every subset.

    Guarded to 20 candidates (``EngineLimitError`` beyond). Prefers
    higher cardinality, then lower total cost, then the earliest subset
    in bitmask order over id-sorted tests, so results are deterministic.
    Repeated ids and zero-cost tests are rejected as in :func:`scope`.
    """
    durations = _priced(candidates)
    ids = sorted(durations)
    n = len(ids)
    if n > 20:
        raise EngineLimitError(f"{n} candidates exceed the enumeration guard of 20")
    costs = [durations[i] for i in ids]
    budget = window.budget()

    sums = [0] * (1 << n)
    counts = [0] * (1 << n)
    best_mask, best_count, best_sum = 0, 0, 0
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        i = low.bit_length() - 1
        sums[mask] = sums[rest] + costs[i]
        counts[mask] = counts[rest] + 1
        if budget is not None and sums[mask] > budget:
            continue
        if counts[mask] > best_count or (counts[mask] == best_count and sums[mask] < best_sum):
            best_mask, best_count, best_sum = mask, counts[mask], sums[mask]
    witness = tuple(ids[i] for i in range(n) if best_mask >> i & 1)
    return ScopeResult(count=best_count, witness=witness, total_cost=best_sum)
