"""Core domain model: test cases, user stories, builds, chains, releases.

A build bundles a program version, its active user stories (its
specification set), and its test set at one point in time; test ids and
story ids are each unique within a build. Chains order builds by index
and readiness timestamp; consecutive builds define a regression
candidate set (the tests shared by both, matched by id). All values are
immutable after construction and safe to share across threads.

Time is abstract: durations and timestamps are non-negative integers in
"microunits", so budget arithmetic is exact and feasibility checks are
decidable (no floating-point drift).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from .errors import (
    BuildOrderError,
    InvalidClassificationError,
    InvalidRangeError,
    MalformedBuildError,
    UnclassifiableTransitionError,
    UndefinedExecutionError,
)

_id = attrgetter("id")


@dataclass(frozen=True)
class TestCase:
    """A single test: identifier, opaque input, expected output, and timing.

    ``exectime`` and ``setup`` are non-negative durations. Their sum is the
    test's cost; operations that price tests reject a zero total, but the
    value itself is constructible so the rejection is observable where it
    matters.
    """

    id: str
    inp: str
    expected: str
    exectime: int
    setup: int

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("test id must be non-empty")
        for name in ("exectime", "setup"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")

    @property
    def duration(self) -> int:
        """Execution time plus setup time."""
        return self.exectime + self.setup


@dataclass(frozen=True)
class UserStory:
    """A specification unit with business value and story points."""

    id: str
    bv: float
    sp: float

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("story id must be non-empty")
        if self.bv < 0 or self.sp < 0:
            raise ValueError("business value and story points must be non-negative")


@dataclass(frozen=True, eq=True)
class ProgramVersion:
    """A program snapshot, simulated by a behavior map.

    ``behavior`` maps a test id to the outcome token that executing the
    test against this program would produce. Lookups for tests the map
    does not cover are an error, never a default. Version ids are totally
    ordered by integer comparison. The mapping is treated as immutable.
    """

    id: int
    behavior: Mapping[str, str]

    def execute(self, test_id: str) -> str:
        try:
            return self.behavior[test_id]
        except KeyError:
            raise UndefinedExecutionError(
                f"program {self.id} has no behavior entry for test {test_id!r}"
            ) from None


@dataclass(frozen=True)
class Build:
    """One increment of the product: program, stories, tests, readiness time.

    ``specs`` is the build's specification set. Test ids and story ids
    are each unique within a build: two tests (or two stories) sharing
    an id, say with different values, raise :class:`MalformedBuildError`
    naming the build and the id, so every consumer may index them by id.
    """

    index: int
    program: ProgramVersion
    specs: frozenset[UserStory]
    tests: frozenset[TestCase]
    ready_at: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("build index must be a positive integer")
        if self.ready_at < 0:
            raise ValueError("ready_at must be non-negative")
        self._check_unique("story", self.specs)
        self._check_unique("test", self.tests)

    def _check_unique(self, kind: str, items: frozenset) -> None:
        if len(frozenset(map(_id, items))) != len(items):
            ids = list(map(_id, items))
            repeated = min(i for i in ids if ids.count(i) > 1)
            raise MalformedBuildError(f"build {self.index} has duplicate {kind} id {repeated!r}")

    def test_ids(self) -> frozenset[str]:
        return frozenset(map(_id, self.tests))

    def story_ids(self) -> frozenset[str]:
        return frozenset(map(_id, self.specs))


@dataclass(frozen=True)
class Iteration:
    """A time-boxed development interval covering a contiguous run of builds."""

    index: int
    first_build: int
    last_build: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("iteration index must be positive")
        if self.first_build > self.last_build:
            raise ValueError("iteration range is empty")


@dataclass(frozen=True)
class Release:
    """A designated build delivered from a contiguous run of iterations."""

    id: str
    source_iterations: tuple[int, ...]
    build: Build

    def __post_init__(self) -> None:
        if not _is_contiguous(self.source_iterations):
            raise InvalidRangeError(
                f"release {self.id!r} spans non-contiguous iterations {self.source_iterations}"
            )


def _is_contiguous(indices: Sequence[int]) -> bool:
    if not indices:
        return False
    ordered = sorted(indices)
    return ordered == list(range(ordered[0], ordered[-1] + 1))


@dataclass(frozen=True)
class BuildChain:
    """A strictly ordered sequence of builds with iterations and releases."""

    builds: tuple[Build, ...]
    iterations: tuple[Iteration, ...] = ()
    releases: tuple[Release, ...] = ()

    def __post_init__(self) -> None:
        for prev, nxt in zip(self.builds, self.builds[1:]):
            if nxt.index <= prev.index:
                raise BuildOrderError(
                    f"build indices must strictly increase ({prev.index} then {nxt.index})"
                )
            if nxt.ready_at <= prev.ready_at:
                raise BuildOrderError(
                    f"ready_at must strictly increase (build {nxt.index})"
                )
        known = {b.index for b in self.builds}
        for pos, itr in enumerate(self.iterations, start=1):
            if itr.index != pos:
                raise ValueError(f"iteration indices must run 1..n, got {itr.index} at {pos}")
            if itr.first_build not in known or itr.last_build not in known:
                raise ValueError(f"iteration {itr.index} references unknown builds")
        for a, b in zip(self.iterations, self.iterations[1:]):
            if b.first_build <= a.last_build:
                raise ValueError(f"iterations {a.index} and {b.index} overlap")
        itr_indices = {i.index for i in self.iterations}
        for rel in self.releases:
            if not set(rel.source_iterations) <= itr_indices:
                raise InvalidRangeError(f"release {rel.id!r} references unknown iterations")
            if rel.build.index not in known:
                raise InvalidRangeError(f"release {rel.id!r} designates an unknown build")

    def __len__(self) -> int:
        return len(self.builds)

    def build(self, index: int) -> Build:
        for b in self.builds:
            if b.index == index:
                return b
        raise KeyError(f"no build with index {index}")

    def pairs(self) -> Iterable[tuple[Build, Build]]:
        """Consecutive (previous, next) build pairs along the chain."""
        return zip(self.builds, self.builds[1:])


class Region(enum.Enum):
    """The eight regions of the program/specification/test membership diagram."""

    R1 = 1
    R2 = 2
    R3 = 3
    R4 = 4
    R5 = 5
    R6 = 6
    R7 = 7
    R8 = 8


_REGION_BY_FLAGS = {
    (True, True, True): Region.R1,
    (True, True, False): Region.R2,
    (True, False, True): Region.R3,
    (False, True, True): Region.R4,
    (False, True, False): Region.R5,
    (True, False, False): Region.R6,
    (False, False, True): Region.R7,
}


def classify_region(in_p: bool, in_s: bool, in_t: bool, outside_all: bool) -> Region:
    """Map a membership flag pattern to its region.

    Regression testing concerns R1 (implemented, specified, and tested).
    ``outside_all`` marks artifacts belonging to none of the three sets
    (R8) and contradicts any membership flag.
    """
    if outside_all:
        if in_p or in_s or in_t:
            raise InvalidClassificationError(
                "outside_all contradicts program/spec/test membership flags"
            )
        return Region.R8
    try:
        return _REGION_BY_FLAGS[(in_p, in_s, in_t)]
    except KeyError:
        raise InvalidClassificationError(
            "artifact belongs to no set but was not declared outside_all"
        ) from None


class TransitionKind(enum.Enum):
    """The five recognized build-transition kinds."""

    PERIODIC_BUILD = "periodic-build"
    NEW_FEATURE = "new-feature"
    DEFECT_FIX = "defect-fix"
    TECH_DEBT = "tech-debt"
    FEATURE_WITHOUT_TEST = "feature-without-test"


@dataclass(frozen=True)
class TransitionDeltas:
    """Raw change indicators between two consecutive builds."""

    program_changed: bool
    specs_changed: bool
    tests_changed: bool


def transition_deltas(b_prev: Build, b_next: Build) -> TransitionDeltas:
    """Detect changes by id: program version id, story id set, test id set."""
    return TransitionDeltas(
        program_changed=b_prev.program.id != b_next.program.id,
        specs_changed=b_prev.story_ids() != b_next.story_ids(),
        tests_changed=b_prev.tests is not b_next.tests
        and (len(b_prev.tests) != len(b_next.tests) or b_prev.test_ids() != b_next.test_ids()),
    )


def classify_transition(b_prev: Build, b_next: Build) -> TransitionKind:
    """Classify a consecutive build transition by its change pattern.

    Rules are evaluated in a fixed order so overlapping prose definitions
    resolve deterministically: a program-only change is always a defect
    fix, and tech-debt requires a test-set change. Patterns outside the
    five kinds (e.g. a spec-only change) raise, carrying the raw deltas.
    """
    if b_next.index != b_prev.index + 1:
        raise BuildOrderError(
            f"transitions are defined for consecutive builds, got {b_prev.index} -> {b_next.index}"
        )
    d = transition_deltas(b_prev, b_next)
    dp, ds, dt = d.program_changed, d.specs_changed, d.tests_changed
    if not dp and not ds and not dt:
        return TransitionKind.PERIODIC_BUILD
    if dp and ds and dt:
        return TransitionKind.NEW_FEATURE
    if dp and not ds and not dt:
        return TransitionKind.DEFECT_FIX
    if dp and dt and not ds:
        return TransitionKind.TECH_DEBT
    if dp and ds and not dt:
        return TransitionKind.FEATURE_WITHOUT_TEST
    raise UnclassifiableTransitionError(d)


def ordered_candidates(b_prev: Build, b_next: Build) -> tuple[TestCase, ...]:
    """Tests shared by two builds, matched by id, in id order.

    This is the regression candidate set. The returned instances come
    from ``b_next`` (the version about to run). Disjoint test sets give
    an empty tuple, which reports that condition rather than raising.
    """
    if b_prev.tests is b_next.tests:
        return tuple(sorted(b_next.tests, key=_id))
    prev_ids = b_prev.test_ids()
    return tuple(sorted([t for t in b_next.tests if t.id in prev_ids], key=_id))


def diverged_tests(b_prev: Build, b_next: Build) -> frozenset[str]:
    """Shared tests whose outcome differs between the two builds' programs.

    A test a behavior map does not cover reads as no outcome, so it
    diverges exactly when the other map covers it.
    """
    before, after = b_prev.program.behavior, b_next.program.behavior
    if before is after:
        return frozenset()
    return frozenset(
        [t for t in b_prev.test_ids() & b_next.test_ids() if before.get(t) != after.get(t)]
    )


def make_release(chain: BuildChain, iteration_indices: Iterable[int]) -> Release:
    """Designate a release from a contiguous run of whole iterations.

    The delivered build is the last build of the last iteration in the
    range (the conventional CI reading of "the outcome of those
    iterations"), and the release id is ``r`` plus that iteration's index.
    """
    indices = sorted(set(iteration_indices))
    if not indices:
        raise InvalidRangeError("iteration range is empty")
    if not _is_contiguous(indices):
        raise InvalidRangeError(f"iteration range {indices} has gaps")
    known = {i.index: i for i in chain.iterations}
    for idx in indices:
        if idx not in known:
            raise InvalidRangeError(f"unknown iteration index {idx}")
    last = known[indices[-1]]
    build = chain.build(last.last_build)
    return Release(id=f"r{indices[-1]}", source_iterations=tuple(indices), build=build)
