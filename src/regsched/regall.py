"""Full-overlap outcome comparison between two consecutive builds.

``reg_all`` runs every shared test against both builds' behavior maps
and reports 1 when all outcomes agree, 0 otherwise. It is defined only
for unbounded windows (the whole candidate set must run); a bounded
window is an error, not a partial answer.

A :class:`Verdict` is a named tuple ``(test_id, outcome_prev,
outcome_next)``, so it compares equal to a plain 3-tuple; its
``consistent`` flag is derived from the two outcomes, never stored.

The report is deliberately not a build verdict: whether a build is
accepted or released on top of this binary result is a separate policy
and has no field here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .budget import Rtw
from .errors import BoundedWindowError
from .model import Build, ordered_candidates


class Verdict(NamedTuple):
    """One test's outcome under the previous and next builds."""

    test_id: str
    outcome_prev: str
    outcome_next: str

    @property
    def consistent(self) -> bool:
        return self.outcome_prev == self.outcome_next


def run_tests(b_prev: Build, b_next: Build, test_ids: Iterable[str]) -> tuple[Verdict, ...]:
    """Execute tests in the given order against both builds' behavior maps.

    For each test the previous build runs first, so the first missing
    behavior entry in that order raises.
    """
    ids = tuple(test_ids)
    return tuple(
        map(Verdict, ids, map(b_prev.program.execute, ids), map(b_next.program.execute, ids))
    )


@dataclass(frozen=True)
class RegAllReport:
    """Outcome of comparing the full candidate set across two builds.

    ``result`` is 1 iff every verdict is consistent. ``vacuous`` marks an
    empty overlap, where the universally-quantified comparison holds
    trivially; callers that require a non-empty shared scope can treat
    that flag as policy.
    """

    result: int
    verdicts: tuple[Verdict, ...]
    first_inconsistent: str | None
    vacuous: bool


def reg_all(b_prev: Build, b_next: Build, window: Rtw) -> RegAllReport:
    """Compare all overlapping test outcomes between two builds.

    Requires an unbounded window; verdicts are reported in test-id order.
    """
    if not window.is_unbounded:
        raise BoundedWindowError(
            "full-overlap comparison is defined only for an unbounded window"
        )
    candidates = ordered_candidates(b_prev, b_next)
    verdicts = run_tests(b_prev, b_next, [t.id for t in candidates])
    first_bad = next((v.test_id for v in verdicts if not v.consistent), None)
    return RegAllReport(
        result=1 if first_bad is None else 0,
        verdicts=verdicts,
        first_inconsistent=first_bad,
        vacuous=not verdicts,
    )
