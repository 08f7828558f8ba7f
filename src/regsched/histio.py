"""History, trace, and report files: versioned JSON in, JSON/CSV out.

The history schema (``"schema": 1``) records a chain and its side data:

* ``builds``    - index (1..n in file order), program_id, ready_at,
                  stories (id/bv/sp), tests (id/inp/expected/exectime/setup)
* ``behavior``  - (program_id, test_id) -> outcome token
* ``dep_edges`` - {from, to, kind} with kind ``test`` (test -> class) or
                  ``class`` (class -> class)
* ``coverage``  - story_id -> test_ids
* ``faults``    - fault_id -> detecting_test_ids

A trace file holds ``tuples``, one record per build: index (1..n),
program_id, spec_ids, test_ids, delta_tau (an integer >= 0 or ``"inf"``),
q_value (a finite number or null) and a schedule drawn from test_ids. A
report file holds a :class:`RunReport`'s rows and aggregates; it and
:class:`HistoryBundle` are defined here, apart from the simulator.

Validation of all three files names the JSON path of the offending
field, with one set of ``_expect*`` checks. Builds repeat their story
and test rows, and a parse validates and builds each
distinct row once: every copy shares that one ``UserStory`` or
``TestCase``, and per-build checks still run on each copy. Serialization
is canonical (sorted keys and rows, ``json.dumps(sort_keys=True,
indent=2) + "\\n"``), so identical models produce identical bytes. The
schema carries no iteration or release data; an ingested chain gets one
iteration spanning all builds (the generator emits the same shape, so a
serialize/ingest round trip is exact). An
execution history is derived only on request, never on ingest: each
consecutive pair gives one verdict per shared test.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Mapping

from .depgraph import DepGraph, ExecutionHistory, build_graph
from .errors import HistoryFormatError, ReferentialIntegrityError, RegschedError
from .model import (
    Build,
    BuildChain,
    Iteration,
    ProgramVersion,
    TestCase,
    UserStory,
    diverged_tests,
    ordered_candidates,
)
from .regall import run_tests
from .trace import Trace, TraceTuple

SCHEMA_VERSION = 1


# --- history files ---------------------------------------------------------


@dataclass
class HistoryBundle:
    """A chain plus the side data a run needs.

    ``faults`` maps a fault id to its detecting tests; ``fault_births``
    records the build index where each fault first manifests as an
    outcome divergence.
    """

    chain: BuildChain
    graph: DepGraph
    coverage: dict[str, frozenset[str]]
    faults: dict[str, frozenset[str]]
    fault_births: dict[str, int]


def serialize_history(bundle: HistoryBundle) -> dict:
    """Canonical JSON-ready form of a history bundle."""
    programs: dict[int, Mapping[str, str]] = {}
    builds_out = []
    for b in bundle.chain.builds:
        programs[b.program.id] = b.program.behavior
        builds_out.append(
            {
                "index": b.index,
                "program_id": b.program.id,
                "ready_at": b.ready_at,
                "stories": [
                    {"id": s.id, "bv": s.bv, "sp": s.sp}
                    for s in sorted(b.specs, key=lambda s: s.id)
                ],
                "tests": [
                    {
                        "id": t.id,
                        "inp": t.inp,
                        "expected": t.expected,
                        "exectime": t.exectime,
                        "setup": t.setup,
                    }
                    for t in sorted(b.tests, key=lambda t: t.id)
                ],
            }
        )
    behavior_out = [
        {"program_id": pid, "test_id": test_id, "outcome": outcome}
        for pid in sorted(programs)
        for test_id, outcome in sorted(programs[pid].items())
    ]
    edges_out = [
        {"from": src, "to": dst, "kind": "class"}
        for src, dst in sorted(bundle.graph.class_deps)
    ] + [
        {"from": src, "to": dst, "kind": "test"}
        for src, dst in sorted(bundle.graph.test_links)
    ]
    coverage_out = [
        {"story_id": story, "test_ids": sorted(tests)}
        for story, tests in sorted(bundle.coverage.items())
    ]
    faults_out = [
        {"fault_id": fid, "detecting_test_ids": sorted(tests)}
        for fid, tests in sorted(bundle.faults.items())
    ]
    return {
        "schema": SCHEMA_VERSION,
        "builds": builds_out,
        "behavior": behavior_out,
        "dep_edges": edges_out,
        "coverage": coverage_out,
        "faults": faults_out,
    }


def _expect(mapping: object, key: str, path: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise HistoryFormatError(f"{path}: missing field {key!r}")
    return mapping[key]


def _expect_int(mapping: object, key: str, path: str, minimum: int | None = None) -> int:
    value = _expect(mapping, key, path)
    if not isinstance(value, int) or isinstance(value, bool):
        raise HistoryFormatError(f"{path}.{key}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise HistoryFormatError(f"{path}.{key}: must be >= {minimum}, got {value}")
    return value


def _expect_str(mapping: object, key: str, path: str) -> str:
    value = _expect(mapping, key, path)
    if not isinstance(value, str) or not value:
        raise HistoryFormatError(f"{path}.{key}: expected a non-empty string, got {value!r}")
    return value


def _expect_list(mapping: object, key: str, path: str) -> list:
    value = _expect(mapping, key, path)
    if not isinstance(value, list):
        raise HistoryFormatError(f"{path}.{key}: expected a list, got {type(value).__name__}")
    return value


def _expect_number(mapping: object, key: str, path: str, minimum: float | None = None) -> float:
    value = _expect(mapping, key, path)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise HistoryFormatError(f"{path}.{key}: expected a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise HistoryFormatError(f"{path}.{key}: expected a finite number, got {value!r}")
    if minimum is not None and value < minimum:
        raise HistoryFormatError(f"{path}.{key}: must be >= {minimum}, got {value}")
    return value


def _expect_optional_number(mapping: object, key: str, path: str) -> float | None:
    return None if _expect(mapping, key, path) is None else _expect_number(mapping, key, path)


def _expect_ids(mapping: object, key: str, path: str) -> tuple[str, ...]:
    ids = _expect_list(mapping, key, path)
    for m, item in enumerate(ids):
        if not isinstance(item, str) or not item:
            raise HistoryFormatError(f"{path}.{key}[{m}]: expected a non-empty string, got {item!r}")
    return tuple(ids)


def _expect_test_ids(mapping: object, key: str, path: str, known: set[str]) -> frozenset[str]:
    ids = _expect_ids(mapping, key, path)
    for test_id in ids:
        if test_id not in known:
            raise ReferentialIntegrityError(f"{path}: unknown test {test_id!r}")
    return frozenset(ids)


def _expect_schema(data: object) -> None:
    schema = _expect_int(data, "schema", "$")
    if schema != SCHEMA_VERSION:
        raise HistoryFormatError(f"$.schema: unsupported version {schema}")


def _shared_row(table: dict, row: object) -> tuple[tuple | None, object]:
    """A row's table key and the object already built for it, if any.

    The key is the row's items plus each value's type, because ``1``,
    ``1.0`` and ``true`` compare equal. A row that is not a dict, or that
    holds a list or dict value, has no key and is left to the validators.
    """
    if type(row) is not dict:
        return None, None
    key = (*row.items(), *map(type, row.values()))
    try:
        return key, table.get(key)
    except TypeError:
        return None, None


def _derive_fault_births(chain: BuildChain, faults: dict[str, frozenset[str]]) -> dict[str, int]:
    """First build where any detecting test's outcome diverges."""
    births: dict[str, int] = {}
    for b_prev, b_next in chain.pairs():
        diverged = diverged_tests(b_prev, b_next)
        for fid, detectors in faults.items():
            if fid not in births and detectors & diverged:
                births[fid] = b_next.index
    return births


def derive_execution_history(chain: BuildChain) -> ExecutionHistory:
    """The per-test verdict log implied by a chain's recorded behaviors."""
    history = ExecutionHistory()
    for b_prev, b_next in chain.pairs():
        ids = [t.id for t in ordered_candidates(b_prev, b_next)]
        history.add_build(b_next.index, run_tests(b_prev, b_next, ids))
    return history


def parse_history(data: dict) -> tuple[HistoryBundle, ExecutionHistory]:
    """Validate history-schema JSON; return the bundle and its execution history."""
    bundle = _parse_bundle(data)
    return bundle, derive_execution_history(bundle.chain)


def _parse_bundle(data: dict) -> HistoryBundle:
    """Validate and build model objects from history-schema JSON."""
    _expect_schema(data)

    behavior: dict[int, dict[str, str]] = {}
    for n, row in enumerate(_expect_list(data, "behavior", "$")):
        # A well-formed row is checked inline; the validators word the error for any other.
        pid = test_id = outcome = None
        if type(row) is dict:
            pid, test_id, outcome = row.get("program_id"), row.get("test_id"), row.get("outcome")
        well_formed = type(pid) is int and type(test_id) is str and type(outcome) is str
        if not (well_formed and test_id and outcome):
            path = f"$.behavior[{n}]"
            pid = _expect_int(row, "program_id", path)
            test_id = _expect_str(row, "test_id", path)
            outcome = _expect_str(row, "outcome", path)
        behavior.setdefault(pid, {})[test_id] = outcome

    programs: dict[int, ProgramVersion] = {}
    # Each distinct story or test row is validated and built once; its later
    # copies share that object. A row that fails validation never enters.
    story_rows: dict[tuple, UserStory] = {}
    test_rows: dict[tuple, TestCase] = {}
    builds: list[Build] = []
    all_test_ids: set[str] = set()
    all_story_ids: set[str] = set()
    for n, row in enumerate(_expect_list(data, "builds", "$")):
        path = f"$.builds[{n}]"
        index = _expect_int(row, "index", path)
        if index != n + 1:
            raise HistoryFormatError(f"{path}.index: build indices must run 1..n, got {index}")
        pid = _expect_int(row, "program_id", path)
        ready_at = _expect_int(row, "ready_at", path, minimum=0)
        stories: dict[str, UserStory] = {}
        for m, srow in enumerate(_expect_list(row, "stories", path)):
            key, story = _shared_row(story_rows, srow)
            if story is None:
                spath = f"{path}.stories[{m}]"
                story = UserStory(
                    id=_expect_str(srow, "id", spath),
                    bv=_expect_number(srow, "bv", spath, minimum=0),
                    sp=_expect_number(srow, "sp", spath, minimum=0),
                )
                # A zero is not shared: 0.0 and -0.0 compare equal but print differently.
                if key is not None and story.bv and story.sp:
                    story_rows[key] = story
            if story.id in stories:
                what = "repeats" if stories[story.id] == story else "repeats with different values"
                raise HistoryFormatError(f"{path}.stories[{m}].id: story {story.id!r} {what}")
            stories[story.id] = story
        tests = []
        for m, trow in enumerate(_expect_list(row, "tests", path)):
            key, test = _shared_row(test_rows, trow)
            if test is None:
                tpath = f"{path}.tests[{m}]"
                test = TestCase(
                    id=_expect_str(trow, "id", tpath),
                    inp=_expect_str(trow, "inp", tpath),
                    expected=_expect_str(trow, "expected", tpath),
                    exectime=_expect_int(trow, "exectime", tpath, minimum=0),
                    setup=_expect_int(trow, "setup", tpath, minimum=0),
                )
                if key is not None:
                    test_rows[key] = test
            tests.append(test)
        test_set = frozenset(tests)
        if len(test_set) != len(tests):
            m = next(m for m, test in enumerate(tests) if test in tests[:m])
            raise HistoryFormatError(f"{path}.tests[{m}].id: test {tests[m].id!r} repeats")
        if pid not in behavior:
            raise ReferentialIntegrityError(f"{path}: program {pid} has no behavior entries")
        for t in tests:
            if t.id not in behavior[pid]:
                raise ReferentialIntegrityError(
                    f"{path}: behavior of program {pid} does not cover test {t.id!r}"
                )
        if pid not in programs:
            programs[pid] = ProgramVersion(pid, behavior[pid])
        all_test_ids.update(t.id for t in tests)
        all_story_ids.update(stories)
        builds.append(
            Build(
                index=index,
                program=programs[pid],
                specs=frozenset(stories.values()),
                tests=test_set,
                ready_at=ready_at,
            )
        )

    class_deps: set[tuple[str, str]] = set()
    test_links: set[tuple[str, str]] = set()
    for n, row in enumerate(_expect_list(data, "dep_edges", "$")):
        path = f"$.dep_edges[{n}]"
        src = _expect_str(row, "from", path)
        dst = _expect_str(row, "to", path)
        kind = _expect_str(row, "kind", path)
        if kind == "class":
            class_deps.add((src, dst))
        elif kind == "test":
            if src not in all_test_ids:
                raise ReferentialIntegrityError(f"{path}: unknown test {src!r}")
            test_links.add((src, dst))
        else:
            raise HistoryFormatError(f"{path}.kind: expected 'test' or 'class', got {kind!r}")

    coverage: dict[str, frozenset[str]] = {}
    for n, row in enumerate(_expect_list(data, "coverage", "$")):
        path = f"$.coverage[{n}]"
        story = _expect_str(row, "story_id", path)
        if story not in all_story_ids:
            raise ReferentialIntegrityError(f"{path}: unknown story {story!r}")
        coverage[story] = _expect_test_ids(row, "test_ids", path, all_test_ids)

    faults: dict[str, frozenset[str]] = {}
    for n, row in enumerate(_expect_list(data, "faults", "$")):
        path = f"$.faults[{n}]"
        fid = _expect_str(row, "fault_id", path)
        faults[fid] = _expect_test_ids(row, "detecting_test_ids", path, all_test_ids)

    classes = {dst for _, dst in test_links} | {c for edge in class_deps for c in edge}
    graph = build_graph(
        classes=classes,
        tests=sorted(all_test_ids),
        class_deps=class_deps,
        test_links=test_links,
    )
    iterations = ()
    if builds:
        iterations = (
            Iteration(index=1, first_build=builds[0].index, last_build=builds[-1].index),
        )
    chain = BuildChain(builds=tuple(builds), iterations=iterations)
    return HistoryBundle(
        chain=chain,
        graph=graph,
        coverage=coverage,
        faults=faults,
        fault_births=_derive_fault_births(chain, faults),
    )


def loads_json(text: str | bytes, error: Callable[[str], RegschedError]):
    """Parse JSON text, raising ``error(message)`` if it is not valid JSON.

    ``json`` raises ``JSONDecodeError`` on bad syntax, but a plain
    ``ValueError`` on an integer longer than CPython's int-string limit
    (4300 digits by default) and ``UnicodeDecodeError`` on bytes that are
    not UTF-8, -16 or -32; all are caught here.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:
        raise error(f"invalid JSON: {exc}") from exc


def read_json(path: str | Path):
    """A history, trace, report or config file's JSON; a bad one is a ``HistoryFormatError``."""
    return loads_json(Path(path).read_bytes(), lambda msg: HistoryFormatError(f"{path}: {msg}"))


def ingest_history(path: str | Path) -> HistoryBundle:
    """Load and validate a history file."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise HistoryFormatError(f"{path}: top level must be an object")
    return _parse_bundle(data)


def dump_history(bundle: HistoryBundle, path: str | Path) -> None:
    Path(path).write_text(dumps_canonical(serialize_history(bundle)))


def dumps_canonical(data: dict) -> str:
    """Deterministic JSON text: ``json.dumps(data, sort_keys=True, indent=2) + "\\n"``.

    From CPython 3.13 the stdlib's C encoder handles ``indent``, so this is
    that call. Before 3.13, ``indent`` forces the pure-Python encoder, and
    :func:`encode_indented` writes the same text a table at a time.
    """
    if sys.version_info >= (3, 13):
        return json.dumps(data, sort_keys=True, indent=2) + "\n"
    return encode_indented(data) + "\n"


_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


def encode_indented(value: object) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, built from C-encoder calls.

    A dict of scalars, a list of scalars and a list of non-empty dicts of
    scalars (a table) each take one C-encoder call whose item separator is
    the newline and indent of their level. With ASCII escaping every raw
    newline in the output is structural, so a table needs only fixed string
    edits between its rows. Other dicts and lists recurse; a dict with a
    non-string key and any other type go to the stdlib, re-indented to
    their level.
    """
    parts: list[str] = []
    encoders: dict[int, Callable[[object], str]] = {}

    def flat(node: object, level: int) -> str:
        """One C-encoder call, items separated at ``level``."""
        encode = encoders.get(level)
        if encode is None:
            sep = ",\n" + "  " * level
            encode = encoders[level] = json.JSONEncoder(
                sort_keys=True, separators=(sep, ": ")
            ).encode
        return encode(node)

    def write(node: object, level: int) -> None:
        kind = type(node)
        outer = "\n" + "  " * level
        inner = outer + "  "
        if kind in _SCALAR_TYPES:
            parts.append(flat(node, level))
        elif kind is dict and set(map(type, node)) <= {str}:
            if not node:
                parts.append("{}")
            elif set(map(type, node.values())) <= _SCALAR_TYPES:
                parts.append("{" + inner + flat(node, level + 1)[1:-1] + outer + "}")
            else:
                sep = "{" + inner
                for key in sorted(node):
                    parts.append(sep + encode_basestring_ascii(key) + ": ")
                    write(node[key], level + 1)
                    sep = "," + inner
                parts.append(outer + "}")
        elif kind is list or kind is tuple:
            kinds = set(map(type, node))
            if not node:
                parts.append("[]")
            elif kinds <= _SCALAR_TYPES:
                parts.append("[" + inner + flat(node, level + 1)[1:-1] + outer + "]")
            elif kinds == {dict} and _is_table(node):
                # Rows come out as "{..." + ",\n<row indent>" + "...}": put each
                # brace on its own line, one level out from the row's items.
                row = inner + "  "
                body = flat(node, level + 2)[2:-2]
                body = body.replace("}," + row + "{", inner + "}," + inner + "{" + row)
                parts.append("[" + inner + "{" + row + body + inner + "}" + outer + "]")
            else:
                sep = "[" + inner
                for item in node:
                    parts.append(sep)
                    write(item, level + 1)
                    sep = "," + inner
                parts.append(outer + "]")
        else:
            parts.append(json.dumps(node, sort_keys=True, indent=2).replace("\n", outer))

    write(value, 0)
    return "".join(parts)


def _is_table(rows: list | tuple) -> bool:
    """Every row a non-empty dict with string keys and scalar values."""
    return (
        all(rows)
        and set(map(type, itertools.chain.from_iterable(rows))) == {str}
        and set(map(type, itertools.chain.from_iterable(map(dict.values, rows))))
        <= _SCALAR_TYPES
    )


# --- run reports -----------------------------------------------------------


@dataclass(frozen=True)
class TransitionRow:
    """One transition's outcome in a scenario run."""

    build_index: int
    transition: str
    candidate_count: int
    schedule: tuple[str, ...]
    total_cost: int
    q_value: float | None
    failed: tuple[str, ...]
    undetected_faults: tuple[str, ...]
    regall_match: bool | None


@dataclass(frozen=True)
class RunReport:
    """Per-transition rows plus whole-run aggregates."""

    seed: int
    strategy: str
    metric: str
    rows: tuple[TransitionRow, ...]
    mean_q: float | None
    total_cost: int
    fault_recall: float | None


REPORT_COLUMNS = (
    "build_index",
    "transition",
    "candidate_count",
    "schedule_size",
    "schedule",
    "total_cost",
    "q_value",
    "failed",
    "undetected_faults",
    "regall_match",
)


def report_to_dict(report: RunReport) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "seed": report.seed,
        "strategy": report.strategy,
        "metric": report.metric,
        "rows": [
            {
                "build_index": r.build_index,
                "transition": r.transition,
                "candidate_count": r.candidate_count,
                "schedule": list(r.schedule),
                "total_cost": r.total_cost,
                "q_value": r.q_value,
                "failed": list(r.failed),
                "undetected_faults": list(r.undetected_faults),
                "regall_match": r.regall_match,
            }
            for r in report.rows
        ],
        "aggregates": {
            "mean_q": report.mean_q,
            "total_cost": report.total_cost,
            "fault_recall": report.fault_recall,
        },
    }


def report_from_dict(data: dict) -> RunReport:
    """Validate report-schema JSON; every bad field is named by its JSON path."""
    _expect_schema(data)
    rows = []
    for n, r in enumerate(_expect_list(data, "rows", "$")):
        path = f"$.rows[{n}]"
        regall_match = _expect(r, "regall_match", path)
        if regall_match is not None and not isinstance(regall_match, bool):
            raise HistoryFormatError(
                f"{path}.regall_match: expected a bool or null, got {regall_match!r}"
            )
        rows.append(
            TransitionRow(
                build_index=_expect_int(r, "build_index", path),
                transition=_expect_str(r, "transition", path),
                candidate_count=_expect_int(r, "candidate_count", path, minimum=0),
                schedule=_expect_ids(r, "schedule", path),
                total_cost=_expect_int(r, "total_cost", path, minimum=0),
                q_value=_expect_optional_number(r, "q_value", path),
                failed=_expect_ids(r, "failed", path),
                undetected_faults=_expect_ids(r, "undetected_faults", path),
                regall_match=regall_match,
            )
        )
    aggregates = _expect(data, "aggregates", "$")
    return RunReport(
        seed=_expect_int(data, "seed", "$"),
        strategy=_expect_str(data, "strategy", "$"),
        metric=_expect_str(data, "metric", "$"),
        rows=tuple(rows),
        mean_q=_expect_optional_number(aggregates, "mean_q", "$.aggregates"),
        total_cost=_expect_int(aggregates, "total_cost", "$.aggregates", minimum=0),
        fault_recall=_expect_optional_number(aggregates, "fault_recall", "$.aggregates"),
    )


def report_to_csv(report: RunReport) -> str:
    """One row per transition; columns are fixed and order-stable."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for r in report.rows:
        writer.writerow(
            [
                r.build_index,
                r.transition,
                r.candidate_count,
                len(r.schedule),
                ";".join(r.schedule),
                r.total_cost,
                "" if r.q_value is None else repr(r.q_value),
                ";".join(r.failed),
                ";".join(r.undetected_faults),
                "" if r.regall_match is None else str(r.regall_match).lower(),
            ]
        )
    return out.getvalue()


def report_text(report: RunReport, fmt: str) -> str:
    """A report as ``json`` or ``csv`` text; identical reports give identical bytes."""
    if fmt == "json":
        return dumps_canonical(report_to_dict(report))
    if fmt == "csv":
        return report_to_csv(report)
    raise HistoryFormatError(f"unknown report format {fmt!r}")


def load_report(path: str | Path) -> RunReport:
    return report_from_dict(read_json(path))


# --- traces ----------------------------------------------------------------


def trace_to_dict(trace: Trace) -> dict:
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
            for t in trace.tuples
        ]
    }


def trace_from_dict(data: dict) -> Trace:
    """Validate trace JSON; every bad field is named by its JSON path."""
    records = []
    for n, row in enumerate(_expect_list(data, "tuples", "$")):
        path = f"$.tuples[{n}]"
        index = _expect_int(row, "index", path)
        if index != n + 1:
            raise HistoryFormatError(f"{path}.index: trace indices must run 1..n, got {index}")
        delta_tau = _expect(row, "delta_tau", path)
        if delta_tau != "inf" and (type(delta_tau) is not int or delta_tau < 0):
            raise HistoryFormatError(
                f"{path}.delta_tau: expected an integer >= 0 or 'inf', got {delta_tau!r}"
            )
        fields = dict(
            program_id=_expect_int(row, "program_id", path),
            spec_ids=_expect_ids(row, "spec_ids", path),
            test_ids=_expect_ids(row, "test_ids", path),
            delta_tau=None if delta_tau == "inf" else delta_tau,
            q_value=_expect_optional_number(row, "q_value", path),
            schedule=_expect_ids(row, "schedule", path),
        )
        try:
            records.append(TraceTuple(index, **fields))
        except ValueError as exc:  # the schedule repeats an id or leaves the snapshot
            raise HistoryFormatError(f"{path}.schedule: {exc}") from exc
    return Trace(tuple(records))


def dump_trace(trace: Trace, path: str | Path) -> None:
    Path(path).write_text(dumps_canonical(trace_to_dict(trace)))


def load_trace(path: str | Path) -> Trace:
    return trace_from_dict(read_json(path))
