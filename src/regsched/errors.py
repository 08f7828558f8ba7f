"""Exception types shared across the library.

Every error raised by the public API derives from :class:`RegschedError`,
so callers can catch one base class at integration boundaries (the CLI
maps them to non-zero exit codes).
"""

from __future__ import annotations


class RegschedError(Exception):
    """Base class for all regsched errors."""


class MalformedBuildError(RegschedError):
    """A build holds two tests, or two stories, that share an id."""


class InvalidClassificationError(RegschedError):
    """Contradictory membership flags passed to region classification."""


class BuildOrderError(RegschedError):
    """Builds supplied out of order where consecutive builds are required."""


class UnclassifiableTransitionError(RegschedError):
    """A build transition whose change pattern matches no known kind.

    Retains the raw delta triple for audit.
    """

    def __init__(self, deltas):
        self.deltas = deltas
        super().__init__(f"transition pattern {deltas} matches no known kind")


class InvalidRangeError(RegschedError):
    """An iteration range that is empty, unknown, or not contiguous."""


class InvalidCostError(RegschedError):
    """A test case whose total duration is not strictly positive."""


class BoundedWindowError(RegschedError):
    """An operation defined only for unbounded windows got a bounded one."""


class UndefinedExecutionError(RegschedError):
    """A program's behavior map has no entry for a test it was asked to run."""


class UnsatisfiableRequirementError(RegschedError):
    """A requirement that no candidate test can fulfill."""

    def __init__(self, story_id: str):
        self.story_id = story_id
        super().__init__(f"requirement {story_id!r} has no covering test among the candidates")


class EngineLimitError(RegschedError):
    """Input exceeds the enumeration guard of an exact engine or oracle."""


class UndefinedMetricError(RegschedError):
    """The metric value does not exist for the given inputs."""


class MalformedGraphError(RegschedError):
    """Dependency-graph data with dangling endpoints or self-loops."""


class UnknownNodeError(RegschedError):
    """A graph operation referenced a node that does not exist."""


class InfeasibleScheduleError(RegschedError):
    """A strategy emitted a schedule that breaks its per-build contract."""

    def __init__(self, build_index: int, reason: str):
        self.build_index = build_index
        self.reason = reason
        super().__init__(f"build {build_index}: {reason}")


class TraceDivergenceError(RegschedError):
    """A recorded trace does not match the chain it is replayed against."""

    def __init__(self, build_index: int, field: str):
        self.build_index = build_index
        self.field = field
        super().__init__(f"trace diverges from chain at build {build_index}, field {field!r}")


class ConfigurationError(RegschedError):
    """An invalid or unknown configuration value.

    ``field`` names the offending configuration entry when known.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message if field is None else f"{field}: {message}")


def require_int(value: object, field: str) -> int:
    """``value`` if it is an int; ``"7"``, ``7.0`` or ``True`` would configure another run."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(f"must be an integer, got {value!r}", field=field)
    return value


class HistoryFormatError(RegschedError):
    """A history, trace, report or config file that is not valid JSON or breaks its schema."""


class ReferentialIntegrityError(RegschedError):
    """A history file whose records reference entities that do not exist."""
