import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build, chain_of, dumps_canonical_oracle, execution_history_oracle, story, tc
from regsched import (
    ExecutionRecord,
    RetestAllStrategy,
    Rtw,
    ScenarioConfig,
    derive_execution_history,
    generate_chain,
    ingest_history,
    parse_history,
    record_trace,
    run_scenario,
    run_scenario_with_trace,
    serialize_history,
)
from regsched.histio import (
    dump_history,
    dump_trace,
    dumps_canonical,
    encode_indented,
    load_report,
    load_trace,
    report_from_dict,
    report_text,
    report_to_csv,
    report_to_dict,
    trace_to_dict,
    REPORT_COLUMNS,
    RunReport,
)
from regsched.errors import HistoryFormatError, ReferentialIntegrityError
from regsched.metrics import fault_count_metric


def minimal_history():
    return {
        "schema": 1,
        "builds": [
            {
                "index": 1,
                "program_id": 1,
                "ready_at": 0,
                "stories": [{"id": "s1", "bv": 5, "sp": 3}],
                "tests": [
                    {"id": "t1", "inp": "in", "expected": "ok", "exectime": 3, "setup": 2}
                ],
            }
        ],
        "behavior": [{"program_id": 1, "test_id": "t1", "outcome": "ok"}],
        "dep_edges": [],
        "coverage": [],
        "faults": [],
    }


# Marks a field to delete in place of a value to set.
REMOVE = object()


class TestHistoryParsing:
    def test_minimal_file_builds_a_one_build_chain(self):
        bundle, history = parse_history(minimal_history())
        assert len(bundle.chain) == 1
        assert bundle.chain.builds[0].test_ids() == {"t1"}
        # One build has no transition, so nothing ran.
        assert history.records("t1") == ()

    def test_unknown_story_in_coverage_is_referential_error(self):
        data = minimal_history()
        data["coverage"] = [{"story_id": "ghost", "test_ids": ["t1"]}]
        with pytest.raises(ReferentialIntegrityError):
            parse_history(data)

    def test_unknown_test_in_coverage_is_referential_error(self):
        data = minimal_history()
        data["coverage"] = [{"story_id": "s1", "test_ids": ["ghost"]}]
        with pytest.raises(ReferentialIntegrityError):
            parse_history(data)

    def test_behavior_must_cover_every_build_test(self):
        data = minimal_history()
        data["behavior"] = [{"program_id": 1, "test_id": "other", "outcome": "ok"}]
        with pytest.raises(ReferentialIntegrityError):
            parse_history(data)

    def test_diagnostics_carry_the_json_path(self):
        data = minimal_history()
        data["builds"][0]["tests"][0]["exectime"] = "fast"
        with pytest.raises(HistoryFormatError, match=r"\$\.builds\[0\]\.tests\[0\]\.exectime"):
            parse_history(data)

    def test_schema_version_is_checked(self):
        data = minimal_history()
        data["schema"] = 2
        with pytest.raises(HistoryFormatError, match="unsupported"):
            parse_history(data)

    def test_unknown_edge_kind_rejected(self):
        data = minimal_history()
        data["dep_edges"] = [{"from": "t1", "to": "c1", "kind": "spooky"}]
        with pytest.raises(HistoryFormatError, match="kind"):
            parse_history(data)

    def test_ingest_reports_json_syntax_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  not json\n}")
        with pytest.raises(HistoryFormatError, match="line 2"):
            ingest_history(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("program_id", REMOVE, "$.behavior[1]: missing field 'program_id'"),
            ("program_id", "1", "$.behavior[1].program_id: expected an integer, got '1'"),
            ("program_id", "", "$.behavior[1].program_id: expected an integer, got ''"),
            ("program_id", True, "$.behavior[1].program_id: expected an integer, got True"),
            ("program_id", 1.0, "$.behavior[1].program_id: expected an integer, got 1.0"),
            ("test_id", REMOVE, "$.behavior[1]: missing field 'test_id'"),
            ("test_id", 1, "$.behavior[1].test_id: expected a non-empty string, got 1"),
            ("test_id", None, "$.behavior[1].test_id: expected a non-empty string, got None"),
            ("test_id", "", "$.behavior[1].test_id: expected a non-empty string, got ''"),
            ("outcome", REMOVE, "$.behavior[1]: missing field 'outcome'"),
            ("outcome", 1, "$.behavior[1].outcome: expected a non-empty string, got 1"),
            ("outcome", "", "$.behavior[1].outcome: expected a non-empty string, got ''"),
            (None, [1, 2], "$.behavior[1]: missing field 'program_id'"),
            (None, "row", "$.behavior[1]: missing field 'program_id'"),
            (None, None, "$.behavior[1]: missing field 'program_id'"),
            (None, 7, "$.behavior[1]: missing field 'program_id'"),
        ],
    )
    def test_a_bad_behavior_row_is_named_by_its_path(self, field, value, message):
        data = minimal_history()
        data["behavior"] = [
            {"program_id": 1, "test_id": t, "outcome": "ok"} for t in ("t0", "t1", "t2")
        ]
        if field is None:
            data["behavior"][1] = value
        elif value is REMOVE:
            del data["behavior"][1][field]
        else:
            data["behavior"][1][field] = value
        with pytest.raises(HistoryFormatError) as exc:
            parse_history(data)
        assert str(exc.value) == message


# A small history in which every build repeats most story and test rows.
HISTORY = serialize_history(
    generate_chain(ScenarioConfig(seed=3, n_builds=5, n_tests=6, n_stories=3))
)
ROW_FIELDS = {
    "stories": ("id", "bv", "sp"),
    "tests": ("id", "inp", "expected", "exectime", "setup"),
}


def _later_copies():
    """(kind, build n, row m, field) for every field of a row seen before."""
    cases = []
    for kind, fields in ROW_FIELDS.items():
        seen = set()
        for n, b in enumerate(HISTORY["builds"]):
            for m, row in enumerate(b[kind]):
                text = json.dumps(row, sort_keys=True)
                if text in seen:
                    cases.extend((kind, n, m, field) for field in fields)
                seen.add(text)
    return cases


def _field_is_valid(field, value):
    """The schema's rule for one row field, stated apart from the parser."""
    if field in ("id", "inp", "expected"):
        return isinstance(value, str) and value != ""
    if field in ("exectime", "setup"):
        return type(value) is int and value >= 0
    return type(value) in (int, float) and value >= 0


class TestRowSharing:
    def test_each_distinct_row_is_one_shared_object(self):
        bundle, _ = parse_history(copy.deepcopy(HISTORY))
        builds = bundle.chain.builds
        objects = {
            "tests": [t for b in builds for t in b.tests],
            "stories": [s for b in builds for s in b.specs],
        }
        for kind, parsed in objects.items():
            rows = [r for b in HISTORY["builds"] for r in b[kind]]
            distinct = {json.dumps(r, sort_keys=True) for r in rows}
            assert len(parsed) == len(rows) > len(distinct)
            assert len({id(o) for o in parsed}) == len(distinct)

    @pytest.mark.parametrize("kind, noun", [("tests", "test"), ("stories", "story")])
    def test_a_row_repeated_in_one_build_is_rejected_at_the_copy(self, kind, noun):
        # Equal copies would collapse into one set member and not round-trip.
        data = copy.deepcopy(HISTORY)
        rows = data["builds"][0][kind]
        rows.append(copy.deepcopy(rows[0]))
        with pytest.raises(HistoryFormatError) as exc:
            parse_history(data)
        assert str(exc.value) == (
            f"$.builds[0].{kind}[{len(rows) - 1}].id: {noun} {rows[0]['id']!r} repeats"
        )

    def test_a_story_repeated_with_other_values_is_rejected_at_the_copy(self):
        data = copy.deepcopy(HISTORY)
        rows = data["builds"][0]["stories"]
        rows.append(dict(rows[0], bv=rows[0]["bv"] + 1))
        with pytest.raises(HistoryFormatError) as exc:
            parse_history(data)
        assert str(exc.value) == (
            f"$.builds[0].stories[{len(rows) - 1}].id: story {rows[0]['id']!r} "
            "repeats with different values"
        )

    @given(
        st.sampled_from(_later_copies()),
        st.sampled_from([True, 1.0, "1", [1], {}, None, "", -1, REMOVE]),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_mutated_later_copy_is_checked_at_its_own_path(self, case, value):
        kind, n, m, field = case
        data = copy.deepcopy(HISTORY)
        row = data["builds"][n][kind][m]
        path = f"$.builds[{n}].{kind}[{m}]"
        if value is REMOVE:
            del row[field]
            expected = f"{path}: missing field {field!r}"
        else:
            row[field] = value
            expected = f"{path}.{field}: "
        if value is REMOVE or not _field_is_valid(field, value):
            with pytest.raises(HistoryFormatError) as exc:
                parse_history(data)
            assert str(exc.value).startswith(expected)
            return
        try:
            bundle, _ = parse_history(data)
        except ReferentialIntegrityError:
            return  # a renamed test that the behaviour table does not cover
        b = bundle.chain.builds[n]
        parsed = b.tests if kind == "tests" else b.specs
        (obj,) = [o for o in parsed if o.id == row["id"]]
        assert repr(getattr(obj, field)) == repr(value)


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(st.sampled_from('ab{},"\n\\: []\u00e9\u20ac\u2028\U0001f600'), max_size=8),
)
keys = st.text(st.sampled_from('ab{},"\n:\u00e9'), max_size=4)
tables = st.lists(st.dictionaries(keys, scalars, max_size=4), max_size=5) | st.lists(
    st.fixed_dictionaries({"id": keys, "n": st.integers(), "x": scalars}), max_size=5
)
documents = st.recursive(
    scalars | tables,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(keys, inner, max_size=4)
    | st.dictionaries(st.integers(-5, 5), inner, max_size=3),
    max_leaves=40,
)


class TestCanonicalWriter:
    @given(documents)
    @settings(max_examples=400, deadline=None)
    def test_writer_matches_the_definition(self, doc):
        assert encode_indented(doc) + "\n" == dumps_canonical_oracle(doc)
        assert dumps_canonical(doc) == dumps_canonical_oracle(doc)

    def test_history_trace_and_report_match_the_definition(self):
        cfg = ScenarioConfig(seed=8, n_builds=6, strategy="retecs")
        report, trace = run_scenario_with_trace(cfg)
        for doc in (
            serialize_history(generate_chain(cfg)), trace_to_dict(trace), report_to_dict(report)
        ):
            assert encode_indented(doc) + "\n" == dumps_canonical_oracle(doc)


class TestRoundTrip:
    def test_generated_bundle_survives_serialize_then_parse(self):
        cfg = ScenarioConfig(seed=99, n_builds=14, fault_rate=0.5)
        bundle = generate_chain(cfg)
        reparsed, _ = parse_history(serialize_history(bundle))
        assert reparsed.chain == bundle.chain
        assert reparsed.graph == bundle.graph
        assert reparsed.coverage == bundle.coverage
        assert reparsed.faults == bundle.faults
        assert reparsed.fault_births == bundle.fault_births

    def test_file_round_trip(self, tmp_path):
        bundle = generate_chain(ScenarioConfig(seed=4, n_builds=5))
        path = tmp_path / "history.json"
        dump_history(bundle, path)
        loaded = ingest_history(path)
        assert loaded.chain == bundle.chain
        assert loaded.faults == bundle.faults

    def test_serialization_is_canonical(self):
        bundle = generate_chain(ScenarioConfig(seed=6, n_builds=6))
        assert dumps_canonical(serialize_history(bundle)) == dumps_canonical(
            serialize_history(bundle)
        )


class TestDerivedExecutionHistory:
    def test_verdicts_follow_recorded_behavior(self):
        shared = [tc("a"), tc("b")]
        b1 = build(1, shared, stories=(story("s1"),))
        b2 = build(2, shared, stories=(story("s1"),), behavior_overrides={"b": "BROKE"})
        history = derive_execution_history(chain_of(b1, b2))
        assert history.records("a") == (ExecutionRecord(2, True),)
        assert history.records("b") == (ExecutionRecord(2, False),)

    @given(st.integers(0, 10_000), st.integers(2, 8), st.floats(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_per_test_oracle_on_generated_chains(self, seed, n_builds, fault_rate):
        cfg = ScenarioConfig(seed=seed, n_builds=n_builds, n_tests=8, fault_rate=fault_rate)
        chain = generate_chain(cfg).chain
        history = derive_execution_history(chain)
        expected = execution_history_oracle(chain)
        for test_id in set().union(*(b.test_ids() for b in chain.builds)):
            logged = [(r.build_index, r.passed) for r in history.records(test_id)]
            assert logged == expected.get(test_id, [])


class TestReportExport:
    def sample_report(self):
        return run_scenario(ScenarioConfig(seed=55, n_builds=6, strategy="retecs"))

    def test_json_round_trip(self):
        report = self.sample_report()
        assert report_from_dict(report_to_dict(report)) == report

    def test_report_file_round_trip(self, tmp_path):
        report = self.sample_report()
        path = tmp_path / "report.json"
        path.write_text(report_text(report, "json"))
        assert load_report(path) == report

    def test_export_is_byte_deterministic(self):
        assert report_text(self.sample_report(), "csv") == report_text(self.sample_report(), "csv")

    def test_empty_report_gives_header_only_csv(self):
        empty = RunReport(
            seed=0, strategy="retest-all", metric="apfd", rows=(),
            mean_q=None, total_cost=0, fault_recall=None,
        )
        lines = report_to_csv(empty).splitlines()
        assert lines == [",".join(REPORT_COLUMNS)]

    def test_csv_columns_are_stable(self):
        assert REPORT_COLUMNS[0] == "build_index"
        text = report_to_csv(self.sample_report())
        assert text.splitlines()[0] == ",".join(REPORT_COLUMNS)

    def test_unknown_format_rejected(self):
        with pytest.raises(HistoryFormatError, match="unknown report format 'xml'"):
            report_text(self.sample_report(), "xml")


class TestTraceFiles:
    def test_dump_and_load(self, tmp_path):
        bundle = generate_chain(ScenarioConfig(seed=2, n_builds=4))
        windows = [Rtw.unbounded()] * 3
        trace = record_trace(
            RetestAllStrategy(), bundle.chain, windows, fault_count_metric()
        )
        path = tmp_path / "trace.json"
        dump_trace(trace, path)
        assert load_trace(path) == trace

    def test_loaded_trace_is_valid_json(self, tmp_path):
        bundle = generate_chain(ScenarioConfig(seed=2, n_builds=3))
        trace = record_trace(
            RetestAllStrategy(), bundle.chain, [Rtw.unbounded()] * 2, fault_count_metric()
        )
        path = tmp_path / "trace.json"
        dump_trace(trace, path)
        raw = json.loads(path.read_text())
        assert {"index", "program_id", "spec_ids", "test_ids", "delta_tau", "q_value", "schedule"} <= set(
            raw["tuples"][0]
        )
