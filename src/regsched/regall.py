"""Full-overlap outcome comparison between two consecutive builds.

``reg_all`` runs every shared test against both builds' behavior maps
and reports 1 when all outcomes agree, 0 otherwise. It is defined only
for unbounded windows (the whole candidate set must run); a bounded
window is an error, not a partial answer.

A :class:`Verdict` is a named tuple ``(test_id, outcome_prev,
outcome_next)``, so it compares equal to a plain 3-tuple; its
``consistent`` flag is derived from the two outcomes, never stored.
A test failed when its two outcomes differ (:func:`failed_ids`). Neither
that filter nor :func:`run_tests` runs a Python frame per test.

The report is deliberately not a build verdict: whether a build is
accepted or released on top of this binary result is a separate policy
and has no field here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import attrgetter
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


# Makes a Verdict from a 3-tuple without the named tuple's Python ``__new__``.
_verdict = partial(tuple.__new__, Verdict)


def run_tests(b_prev: Build, b_next: Build, test_ids: Iterable[str]) -> tuple[Verdict, ...]:
    """Execute tests in the given order against both builds' behavior maps.

    For each test the previous build runs first, so the first missing
    behavior entry in that order raises.
    """
    ids = tuple(test_ids)
    prev, nxt = b_prev.program.behavior, b_next.program.behavior
    try:
        return tuple(map(_verdict, zip(ids, map(prev.__getitem__, ids), map(nxt.__getitem__, ids))))
    except KeyError as missing:
        # Raise the execution error of the first build lacking the id.
        test_id = missing.args[0]
        (b_next if test_id in prev else b_prev).program.execute(test_id)
        raise


def failed_ids(verdicts: Iterable[Verdict]) -> list[str]:
    """The ids of the tests whose two outcomes differ, in verdict order."""
    return [test_id for test_id, before, after in verdicts if before != after]


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
    verdicts = run_tests(b_prev, b_next, tuple(map(attrgetter("id"), candidates)))
    first_bad = next(iter(failed_ids(verdicts)), None)
    return RegAllReport(
        result=1 if first_bad is None else 0,
        verdicts=verdicts,
        first_inconsistent=first_bad,
        vacuous=not verdicts,
    )
