import copy
import hashlib
import io
import json
import math
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import regsched.trace as trace_module
from helpers import counted
from regsched import ScenarioConfig, generate_chain, run_scenario
from regsched.cli import main
from regsched.histio import (
    dump_history,
    load_report,
    load_trace,
    report_to_dict,
    serialize_history,
)


@pytest.fixture
def history_file(tmp_path):
    bundle = generate_chain(ScenarioConfig(seed=12, n_builds=8, fault_rate=0.5))
    path = tmp_path / "history.json"
    dump_history(bundle, path)
    return path


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "seed": 12,
                "n_builds": 8,
                "window_policy": "nightly",
                "strategy": "retecs",
                "metric": "apfd",
            }
        )
    )
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_json_report_to_stdout(self, config_file, capsys):
        assert run_cli("simulate", "--config", config_file) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategy"] == "retecs"
        assert len(payload["rows"]) == 7

    def test_csv_report_to_file(self, config_file, tmp_path):
        out = tmp_path / "report.csv"
        assert run_cli("simulate", "--config", config_file, "--format", "csv", "--out", out) == 0
        assert out.read_text().startswith("build_index,")

    def test_trace_side_output(self, config_file, tmp_path):
        trace_path = tmp_path / "trace.json"
        out = tmp_path / "report.json"
        assert (
            run_cli(
                "simulate", "--config", config_file, "--out", out, "--trace", trace_path
            )
            == 0
        )
        assert len(load_trace(trace_path)) == 8

    def test_makes_a_trace_only_when_asked(self, config_file, tmp_path, monkeypatch):
        records = counted(monkeypatch, trace_module, "_snapshot")
        plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
        assert run_cli("simulate", "--config", config_file, "--out", plain) == 0
        assert records == []
        trace_path = tmp_path / "trace.json"
        assert run_cli("simulate", "--config", config_file, "--out", traced, "--trace", trace_path) == 0
        assert len(records) == len(load_trace(trace_path)) == 8
        assert plain.read_bytes() == traced.read_bytes()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "fields",
        [
            {"strategy": "retest-all", "window_policy": "unbounded", "metric": "coverage"},
            {"strategy": "retecs"},
            {"strategy": "depgraph", "window_policy": "sprint"},
            {"strategy": "random-k", "strategy_params": {"k": 5}, "fault_rate": 0.5},
        ],
        ids=["retest-all-unbounded", "retecs", "depgraph", "random-k"],
    )
    def test_report_bytes_do_not_depend_on_trace(self, tmp_path, fields, fmt):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({"seed": 7, "n_builds": 12, "n_tests": 30, **fields}))
        plain, traced = tmp_path / "plain", tmp_path / "traced"
        args = ("simulate", "--config", config, "--format", fmt, "--out")
        assert run_cli(*args, plain) == 0
        assert run_cli(*args, traced, "--trace", tmp_path / "trace.json") == 0
        assert plain.read_bytes() == traced.read_bytes()

    def test_seed_override_changes_output(self, config_file, capsys):
        run_cli("simulate", "--config", config_file)
        base = capsys.readouterr().out
        run_cli("simulate", "--config", config_file, "--seed", "999")
        other = capsys.readouterr().out
        assert json.loads(base)["seed"] == 12
        assert json.loads(other)["seed"] == 999

    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"seed": 1, "fault_rate": 7}))
        assert run_cli("simulate", "--config", bad) == 1
        assert "fault_rate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"seed": "7"}, "seed"),
            ({"seed": 7.0}, "seed"),
            ({"seed": True}, "seed"),
            ({"n_builds": "5"}, "n_builds"),
            ({"n_tests": 20.0}, "n_tests"),
            ({"n_stories": None}, "n_stories"),
            ({"n_classes": "8"}, "n_classes"),
            ({"window_policy": "fixed", "window_value": 2.5}, "window_value"),
            ({"window_policy": "list", "window_values": [10] * 6 + [2.5]}, "window_values"),
            ({"window_policy": "list", "window_values": 10}, "window_values"),
            ({"transition_mix": {"periodic-build": "x", "defect-fix": 0.5}}, "transition_mix"),
            ({"transition_mix": {"periodic-build": math.nan, "new-feature": 1.0}}, "transition_mix"),
            ({"transition_mix": {"periodic-build": 10**400, "new-feature": 1.0}}, "transition_mix"),
            ({"fault_rate": "x"}, "fault_rate"),
            ({"metric": []}, "metric"),
        ],
        ids=[
            "seed-a-string",
            "seed-a-float",
            "seed-a-bool",
            "n-builds-a-string",
            "n-tests-a-float",
            "n-stories-null",
            "n-classes-a-string",
            "window-value-a-float",
            "window-values-entry-a-float",
            "window-values-not-a-list",
            "mix-weight-not-a-number",
            "mix-weight-nan",
            "mix-weight-too-large-for-a-float",
            "fault-rate-not-a-number",
            "metric-not-a-string",
        ],
    )
    def test_wrong_typed_config_fails_cleanly(self, config_file, capsys, changes, field):
        config_file.write_text(json.dumps({**json.loads(config_file.read_text()), **changes}))
        code = run_cli("simulate", "--config", config_file)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {field}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"window_value": 40}, "window_value"),
            ({"window_policy": "fixed", "window_value": 40, "window_values": [40] * 7},
             "window_values"),
        ],
        ids=["value-under-nightly", "values-under-fixed"],
    )
    def test_window_field_its_policy_ignores_fails_cleanly(
        self, config_file, capsys, changes, field
    ):
        config_file.write_text(json.dumps({**json.loads(config_file.read_text()), **changes}))
        code = run_cli("simulate", "--config", config_file)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {field}: the ")
        assert "policy does not read it" in err

    def test_config_not_an_object_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        assert run_cli("simulate", "--config", bad, "--seed", "3") == 1
        assert capsys.readouterr().err.startswith("error: config: ")

    def test_unknown_strategy_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"seed": 1, "strategy": "psychic"}))
        assert run_cli("simulate", "--config", bad) == 1
        assert "psychic" in capsys.readouterr().err


class TestTransitionCommands:
    def test_schedule_reports_scope(self, history_file, capsys):
        assert (
            run_cli(
                "schedule", "--history", history_file, "--prev", 1, "--next", 2,
                "--window", 25,
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_cost"] <= 25
        assert payload["count"] == len(payload["witness"])

    def test_schedule_unbounded_admits_all(self, history_file, capsys):
        run_cli(
            "schedule", "--history", history_file, "--prev", 1, "--next", 2,
            "--window", "inf",
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == len(payload["witness"])

    def test_minimize(self, history_file, capsys):
        code = run_cli("minimize", "--history", history_file, "--prev", 1, "--next", 2)
        out = capsys.readouterr()
        if code == 0:
            payload = json.loads(out.out)
            assert set(payload) == {"tests", "requirements"}
        else:
            # A story without covering tests is a legitimate failure mode.
            assert "requirement" in out.err

    def test_select_retest_all(self, history_file, capsys):
        assert (
            run_cli(
                "select", "--history", history_file, "--prev", 1, "--next", 2,
                "--selector", "retest-all",
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["selector"] == "retest-all"
        assert payload["tests"]

    def test_select_random_k_seeded(self, history_file, capsys):
        run_cli(
            "select", "--history", history_file, "--prev", 1, "--next", 2,
            "--selector", "random-k", "--k", 2, "--seed", 5,
        )
        first = json.loads(capsys.readouterr().out)
        run_cli(
            "select", "--history", history_file, "--prev", 1, "--next", 2,
            "--selector", "random-k", "--k", 2, "--seed", 5,
        )
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert len(first["tests"]) == 2

    def test_prioritize(self, history_file, capsys):
        assert (
            run_cli(
                "prioritize", "--history", history_file, "--prev", 1, "--next", 2,
                "--metric", "fault-count",
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["order"]) == len(set(payload["order"]))

    def test_regall_defaults_to_unbounded(self, history_file, capsys):
        assert run_cli("regall", "--history", history_file, "--prev", 1, "--next", 2) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"] in (0, 1)
        assert isinstance(payload["verdicts"], list)

    def test_regall_bounded_window_fails(self, history_file, capsys):
        assert (
            run_cli(
                "regall", "--history", history_file, "--prev", 1, "--next", 2,
                "--window", "10",
            )
            == 1
        )
        assert "unbounded" in capsys.readouterr().err

    def test_unknown_build_index_fails(self, history_file, capsys):
        code = run_cli("schedule", "--history", history_file, "--prev", 1, "--next", 99,
                       "--window", "5")
        assert code == 1


class TestTraceCommands:
    def test_record_replay_check_flow(self, history_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert (
            run_cli(
                "trace", "record", "--history", history_file, "--strategy", "depgraph",
                "--metric", "fault-count", "--window", "40", "--out", trace_path,
            )
            == 0
        )
        assert trace_path.exists()

        assert (
            run_cli(
                "trace", "replay", "--history", history_file, "--trace", trace_path
            )
            == 0
        )
        steps = json.loads(capsys.readouterr().out)["steps"]
        assert len(steps) == 8

        assert (
            run_cli(
                "trace", "check", "--history", history_file, "--strategy", "depgraph",
                "--metric", "fault-count", "--window", "40",
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_verified"] is True

    def test_record_with_explicit_windows(self, history_file, tmp_path):
        trace_path = tmp_path / "trace.json"
        windows = ",".join(["30"] * 6 + ["inf"])
        assert (
            run_cli(
                "trace", "record", "--history", history_file, "--strategy", "retest-all",
                "--window", windows, "--out", trace_path,
            )
            == 0
        )
        trace = load_trace(trace_path)
        assert trace.tuples[-1].is_unbounded

    @pytest.mark.parametrize(
        "document, keys, value, names",
        [
            (
                "trace", ("tuples", 1, "delta_tau"), "abc",
                "$.tuples[1].delta_tau: expected an integer >= 0 or 'inf', got 'abc'",
            ),
            ("trace", ("tuples", 1, "delta_tau"), 2.5, "$.tuples[1].delta_tau: "),
            ("trace", ("tuples", 1, "delta_tau"), "7", "$.tuples[1].delta_tau: "),
            ("trace", ("tuples", 1, "delta_tau"), True, "$.tuples[1].delta_tau: "),
            ("trace", ("tuples", 1, "schedule"), ["ghost"], "$.tuples[1].schedule: "),
            (
                "trace", ("tuples", 1, "schedule"), ["t001", "t001"],
                "$.tuples[1].schedule: schedule contains duplicate test ids",
            ),
            ("trace", ("tuples", 2, "index"), 7, "$.tuples[2].index: "),
            ("trace", ("tuples", 0, "index"), True, "$.tuples[0].index: expected an integer"),
            (
                "trace", ("tuples", 0, "program_id"), True,
                "$.tuples[0].program_id: expected an integer",
            ),
            ("trace", ("tuples", 1, "q_value"), [1], "$.tuples[1].q_value: expected a number"),
            (
                "trace", ("tuples", 1, "q_value"), "not a number",
                "$.tuples[1].q_value: expected a number",
            ),
            ("trace", ("tuples", 1, "q_value"), math.nan, "$.tuples[1].q_value: expected a finite"),
            ("trace", ("tuples", 1, "test_ids"), "t001", "$.tuples[1].test_ids: expected a list"),
            ("trace", ("tuples", 1, "spec_ids"), "s001", "$.tuples[1].spec_ids: expected a list"),
            (
                "trace", ("tuples", 1, "test_ids", 0), "",
                "$.tuples[1].test_ids[0]: expected a non-empty string",
            ),
            (
                "trace", ("tuples", 1, "spec_ids", 0), "",
                "$.tuples[1].spec_ids[0]: expected a non-empty string",
            ),
            (
                "trace", ("tuples", 1, "schedule"), [""],
                "$.tuples[1].schedule[0]: expected a non-empty string",
            ),
            # Build 1 has no predecessor, so none of its tests is a candidate.
            ("trace", ("tuples", 0, "schedule"), ["t001"], "build 1, field 'schedule'"),
            # Every test of build 2 costs far more than the recorded window of 40.
            (
                "trace", ("tuples", 1, "schedule"), [f"t{n:03d}" for n in range(1, 21)],
                "build 2, field 'delta_tau'",
            ),
            ("history", ("builds", 0, "stories", 0, "bv"), -1, "$.builds[0].stories[0].bv: "),
            (
                "history", ("builds", 0, "stories", 0, "bv"), math.nan,
                "$.builds[0].stories[0].bv: expected a finite number, got nan",
            ),
            (
                "history", ("builds", 0, "stories", 0, "sp"), math.inf,
                "$.builds[0].stories[0].sp: expected a finite number, got inf",
            ),
            (
                "history", ("coverage", 0, "test_ids", 0), {"id": "t008"},
                "$.coverage[0].test_ids[0]: ",
            ),
            (
                "history", ("faults", 0, "detecting_test_ids", 0), ["t016"],
                "$.faults[0].detecting_test_ids[0]: ",
            ),
            # Story s002 of build 1 takes the id of s001, which has other values.
            ("history", ("builds", 0, "stories", 1, "id"), "s001", "$.builds[0].stories[1].id: "),
        ],
        ids=[
            "delta-tau-not-a-number",
            "delta-tau-a-float",
            "delta-tau-a-string",
            "delta-tau-a-bool",
            "schedule-outside-snapshot",
            "schedule-repeats-an-id",
            "index-out-of-order",
            "index-a-bool",
            "program-id-a-bool",
            "q-value-a-list",
            "q-value-a-string",
            "q-value-nan",
            "test-ids-a-string",
            "spec-ids-a-string",
            "test-id-empty",
            "spec-id-empty",
            "schedule-id-empty",
            "schedule-outside-candidates",
            "schedule-over-delta-tau",
            "story-bv-negative",
            "story-bv-nan",
            "story-sp-infinity",
            "coverage-test-id-a-dict",
            "detecting-test-id-a-list",
            "story-id-repeated-with-other-values",
        ],
    )
    def test_malformed_trace_replay_fails_cleanly(
        self, history_file, tmp_path, capsys, document, keys, value, names
    ):
        trace_path = tmp_path / "trace.json"
        run_cli(
            "trace", "record", "--history", history_file, "--strategy", "retest-all",
            "--window", "40", "--out", trace_path,
        )
        target = trace_path if document == "trace" else history_file
        data = json.loads(target.read_text())
        *parents, last = keys
        node = data
        for key in parents:
            node = node[key]
        node[last] = value
        target.write_text(json.dumps(data))
        code = run_cli("trace", "replay", "--history", history_file, "--trace", trace_path)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert names in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("verb", ["record", "check"])
    @pytest.mark.parametrize(
        "strategy, params, field",
        [
            ("random-k", {"k": "x"}, "k"),
            ("random-k", {"k": 3, "seed": [1]}, "seed"),
            ("retecs", {"capacity": 0}, "capacity"),
            ("retecs", {"decay": "fast"}, "decay"),
            ("retecs", {"decay": 1.5}, "decay"),
            ("depgraph", {"recent": None}, "recent"),
            ("retest-all", [1], "params"),
            ("retecs", {"deacy": 0.5}, "deacy"),
            ("retest-all", {"k": 3}, "k"),
            ("random-k", {"k": 1.7}, "k"),
            ("random-k", {"k": True}, "k"),
            ("retecs", {"capacity": 2.0}, "capacity"),
            ("depgraph", {"recent": 0}, "recent"),
            ("depgraph", {"recent": -3}, "recent"),
            ("retecs", {"failure_reward": math.nan}, "failure_reward"),
            ("retecs", {"failure_reward": math.inf}, "failure_reward"),
            ("retecs", {"failure_reward": -1}, "failure_reward"),
            ("retecs", {"decay": 10**400}, "decay"),
            ("retecs", {"engine": "bogus"}, "engine"),
        ],
        ids=[
            "k-not-an-int",
            "seed-a-list",
            "capacity-zero",
            "decay-not-a-number",
            "decay-out-of-range",
            "recent-null",
            "params-not-an-object",
            "unknown-key",
            "key-of-another-strategy",
            "k-a-float",
            "k-a-bool",
            "capacity-a-float",
            "recent-zero",
            "recent-negative",
            "failure-reward-nan",
            "failure-reward-infinite",
            "failure-reward-negative",
            "decay-too-large-for-a-float",
            "engine-unknown",
        ],
    )
    def test_wrong_typed_params_fail_cleanly(
        self, history_file, tmp_path, capsys, verb, strategy, params, field
    ):
        code = run_cli(
            "trace", verb, "--history", history_file, "--strategy", strategy,
            "--params", json.dumps(params), "--out", tmp_path / "out.json",
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {field}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("verb", ["record", "check"])
    @pytest.mark.parametrize(
        "first, step, bad",
        [(1, 2, 1), (2, 1, 0)],
        ids=["gapped-indices", "offset-indices"],
    )
    def test_build_indices_not_one_to_n_fail_cleanly(
        self, history_file, tmp_path, capsys, verb, first, step, bad
    ):
        data = json.loads(history_file.read_text())
        for n, row in enumerate(data["builds"]):
            row["index"] = first + n * step
        history_file.write_text(json.dumps(data))
        code = run_cli(
            "trace", verb, "--history", history_file, "--strategy", "retest-all",
            "--out", tmp_path / "out.json",
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: $.builds[{bad}].index: ")
        assert "Traceback" not in err

    def test_replay_rejects_a_build_with_a_duplicate_test_id(
        self, history_file, tmp_path, capsys
    ):
        trace_path = tmp_path / "trace.json"
        run_cli(
            "trace", "record", "--history", history_file, "--strategy", "retest-all",
            "--out", trace_path,
        )
        data = json.loads(history_file.read_text())
        tests = data["builds"][2]["tests"]
        tests.append(dict(tests[0], exectime=tests[0]["exectime"] + 7))
        history_file.write_text(json.dumps(data))
        code = run_cli("trace", "replay", "--history", history_file, "--trace", trace_path)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert f"build 3 has duplicate test id {tests[0]['id']!r}" in err

    def test_retecs_records_a_zero_cost_test_within_budget(self, history_file, tmp_path):
        data = json.loads(history_file.read_text())
        for row in data["builds"]:
            row["tests"][0].update(exectime=0, setup=0)
        history_file.write_text(json.dumps(data))
        trace_path = tmp_path / "trace.json"
        assert (
            run_cli(
                "trace", "record", "--history", history_file, "--strategy", "retecs",
                "--window", "30", "--out", trace_path,
            )
            == 0
        )
        cost = {
            (row["index"], t["id"]): t["exectime"] + t["setup"]
            for row in data["builds"]
            for t in row["tests"]
        }
        for record in load_trace(trace_path).tuples[1:]:
            assert record.delta_tau == 30
            assert "t001" in record.schedule
            assert sum(cost[record.index, i] for i in record.schedule) <= 30

    @pytest.mark.parametrize(
        "argv, field",
        [
            (("schedule", "--prev", 1, "--next", 2, "--window", -3), "window"),
            (("regall", "--prev", 1, "--next", 2, "--window", -3), "window"),
            (("trace", "record", "--strategy", "retecs", "--window", -3, "--out", "t.json"),
             "window"),
            (("trace", "check", "--strategy", "retecs", "--window", -3), "window"),
            (("trace", "record", "--strategy", "retest-all",
              "--window", ",".join(["40"] * 6 + ["-1"]), "--out", "t.json"), "window"),
            (("select", "--prev", 1, "--next", 2, "--selector", "random-k", "--k", -1), "k"),
        ],
        ids=["schedule", "regall", "trace-record", "trace-check", "windows-entry", "select-k"],
    )
    def test_negative_window_or_k_fails_cleanly(
        self, history_file, tmp_path, monkeypatch, capsys, argv, field
    ):
        monkeypatch.chdir(tmp_path)
        verb = argv[:2] if argv[0] == "trace" else argv[:1]
        code = run_cli(*verb, "--history", history_file, *argv[len(verb):])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {field}: ")
        assert "Traceback" not in err

    def test_window_count_mismatch_fails(self, history_file, tmp_path, capsys):
        for verb in ("record", "check"):
            for count in (2, 8):
                code = run_cli(
                    "trace", verb, "--history", history_file, "--strategy", "retest-all",
                    "--window", ",".join(["40"] * count), "--out", tmp_path / "t.json",
                )
                assert code == 1
                err = capsys.readouterr().err
                assert err == f"error: window: need one value or 7, got {count}\n"
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("n_builds", [1, 2, 5])
    def test_one_window_value_covers_any_number_of_transitions(self, tmp_path, n_builds):
        history, trace_path = tmp_path / "h.json", tmp_path / "t.json"
        dump_history(generate_chain(ScenarioConfig(seed=3, n_builds=n_builds)), history)
        assert run_cli(
            "trace", "record", "--history", history, "--strategy", "retest-all",
            "--window", "40", "--out", trace_path,
        ) == 0
        assert [t.delta_tau for t in load_trace(trace_path).tuples] == [0] + [40] * (n_builds - 1)

    @pytest.mark.parametrize(
        "strategy, window, digest",
        [
            ("retecs", "40", "c63787e98ca242ecf1fb6030fc503aa0005a0b656d650cc5921739cecb8270e8"),
            ("depgraph", "40", "6781fab42221750a8072227b958e6c06623d57ddb05d26a7a0d2873a29581527"),
            ("retecs", "30,inf,40,0,25,inf,60",
             "ea3f410d316d821f30d6fd8e6521e5496b1841d0e3d15972e08b9c12b3c5f5ed"),
            ("retest-all", "30, 30,30,30,30,30,inf",
             "6fc109407de34013740da62f9ab729f81e5d3d4030a7f05e34d53a27fd628c08"),
        ],
        ids=["retecs-one", "depgraph-one", "retecs-list", "retest-all-list"],
    )
    def test_window_forms_keep_the_recorded_bytes(
        self, history_file, tmp_path, strategy, window, digest
    ):
        # Digests of the trace files that ``--window`` (one value) and the
        # former ``--windows`` (a comma list) wrote for these runs.
        trace_path = tmp_path / "t.json"
        assert run_cli(
            "trace", "record", "--history", history_file, "--strategy", strategy,
            "--window", window, "--out", trace_path,
        ) == 0
        assert hashlib.sha256(trace_path.read_bytes()).hexdigest() == digest

    def test_window_count_on_an_empty_history(self, tmp_path, capsys):
        history = tmp_path / "empty.json"
        history.write_text(
            json.dumps(
                {"schema": 1, "builds": [], "behavior": [], "dep_edges": [], "coverage": [],
                 "faults": []}
            )
        )
        argv = ("trace", "record", "--history", history, "--strategy", "retest-all", "--out",
                tmp_path / "t.json")
        assert run_cli(*argv, "--window", "5") == 0
        assert len(load_trace(tmp_path / "t.json")) == 0
        assert run_cli(*argv, "--window", "5,5") == 1
        assert capsys.readouterr().err == "error: window: need one value or 0, got 2\n"


class TestReportCommand:
    def test_reexport_json_to_csv(self, config_file, tmp_path):
        report_path = tmp_path / "report.json"
        run_cli("simulate", "--config", config_file, "--out", report_path)
        csv_path = tmp_path / "report.csv"
        assert (
            run_cli("report", "--in", report_path, "--format", "csv", "--out", csv_path) == 0
        )
        assert csv_path.read_text().startswith("build_index,")

    def test_reexport_json_identity(self, config_file, tmp_path):
        report_path = tmp_path / "report.json"
        run_cli("simulate", "--config", config_file, "--out", report_path)
        copy_path = tmp_path / "copy.json"
        run_cli("report", "--in", report_path, "--format", "json", "--out", copy_path)
        assert load_report(copy_path) == load_report(report_path)

    def test_missing_file_fails(self, tmp_path, config_file, history_file, capsys):
        """A missing file, or a directory where a file belongs, is an error, not a traceback."""
        for argv in [
            ("report", "--in", tmp_path / "ghost.json", "--format", "csv", "--out", tmp_path / "o"),
            ("report", "--in", tmp_path, "--format", "csv", "--out", tmp_path / "o"),
            ("simulate", "--config", tmp_path),
            ("simulate", "--config", config_file, "--out", tmp_path),
            ("generate", "--config", config_file, "--out", tmp_path),
            ("regall", "--history", tmp_path, "--prev", 1, "--next", 2),
            ("regall", "--history", history_file, "--prev", 1, "--next", 2, "--out", tmp_path),
            ("trace", "record", "--history", history_file, "--strategy", "retest-all",
             "--out", tmp_path),
        ]:
            assert run_cli(*argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err, argv


# 5000 digits: over CPython's default int-string limit of 4300.
HUGE = "9" * 5000


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no int-string limit"
)
@pytest.mark.parametrize(
    "target, key",
    [("config", "seed"), ("history", "ready_at"), ("trace", "delta_tau"),
     ("report", "total_cost"), ("params", "k")],
)
def test_json_integer_over_the_digit_limit_fails_cleanly(
    config_file, history_file, tmp_path, capsys, target, key
):
    trace, report, out = tmp_path / "trace.json", tmp_path / "report.json", tmp_path / "out"
    assert run_cli("trace", "record", "--history", history_file, "--strategy", "retecs",
                   "--window", 40, "--out", trace) == 0
    assert run_cli("simulate", "--config", config_file, "--out", report) == 0
    files = {"config": config_file, "history": history_file, "trace": trace, "report": report}
    if target in files:
        text, count = re.subn(
            rf'"{key}": \d+', f'"{key}": {HUGE}', files[target].read_text(), count=1
        )
        assert count == 1
        files[target].write_text(text)
    argv = {
        "config": ("simulate", "--config", config_file),
        "history": ("regall", "--history", history_file, "--prev", 1, "--next", 2),
        "trace": ("trace", "replay", "--history", history_file, "--trace", trace),
        "report": ("report", "--in", report, "--format", "csv", "--out", out),
        "params": ("trace", "record", "--history", history_file, "--strategy", "random-k",
                   "--params", f'{{"{key}": {HUGE}}}', "--out", out),
    }[target]
    capsys.readouterr()
    code = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {files.get(target, 'params')}: invalid JSON: ")
    assert "Traceback" not in err


def test_history_that_is_not_utf8_fails_cleanly(tmp_path, capsys):
    history = tmp_path / "history.json"
    history.write_bytes(b'{"schema": "\xff"}')
    code = run_cli("regall", "--history", history, "--prev", 1, "--next", 2)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {history}: invalid JSON: ")
    assert "Traceback" not in err


def test_no_arguments_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# --- single-field mutations at the file boundary -----------------------------

REMOVE = object()
FUZZ_VALUES = [True, 1.0, "1", "x", [1], {}, None, "", -1, 0, 10**12, REMOVE]
FUZZ_HISTORY = serialize_history(
    generate_chain(ScenarioConfig(seed=12, n_builds=4, fault_rate=0.5))
)
RECORD_ARGS = ("--strategy", "retecs", "--metric", "fault-count", "--window", "40")
FUZZ_REPORT = report_to_dict(run_scenario(ScenarioConfig(seed=12, n_builds=4, fault_rate=0.5)))


def _paths(node, prefix=()):
    """The path of every field and list item below ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is REMOVE:
        del node[last]
    else:
        node[last] = value
    return doc


def _run_quietly(*argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = run_cli(*argv)
    return code, err.getvalue()


@lru_cache(maxsize=None)
def _recorded_trace():
    with tempfile.TemporaryDirectory() as tmp:
        history, trace = Path(tmp) / "history.json", Path(tmp) / "trace.json"
        history.write_text(json.dumps(FUZZ_HISTORY))
        code, err = _run_quietly(
            "trace", "record", "--history", history, *RECORD_ARGS, "--out", trace
        )
        assert code == 0, err
        return json.loads(trace.read_text())


def _record_repeating_its_first_id():
    """The path and value of a record whose schedule ends with its first id again.

    The budget is lifted to ``inf`` so that the repeat, not its cost, is what
    replay meets.
    """
    n, row = next((n, r) for n, r in enumerate(_recorded_trace()["tuples"]) if r["schedule"])
    schedule = [*row["schedule"], row["schedule"][0]]
    return ("tuples", n), {**row, "delta_tau": "inf", "schedule": schedule}


def _assert_clean_exit(code, err):
    assert code in (0, 1)
    if code == 1:
        assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "keys, value, fmt, names",
    [
        (("rows", 0, "schedule"), [1, 2], "csv", "$.rows[0].schedule[0]: expected a non-empty"),
        (("rows", 0, "schedule"), "t001", "csv", "$.rows[0].schedule: expected a list"),
        (("rows", 0, "failed"), [""], "csv", "$.rows[0].failed[0]: expected a non-empty"),
        (("rows", 0, "total_cost"), True, "json", "$.rows[0].total_cost: expected an integer"),
        (("rows", 0, "candidate_count"), 2.0, "csv", "$.rows[0].candidate_count: expected an"),
        (("rows", 0, "q_value"), "0.5", "csv", "$.rows[0].q_value: expected a number"),
        (("rows", 0, "regall_match"), 1, "csv", "$.rows[0].regall_match: expected a bool"),
        (("aggregates", "mean_q"), math.inf, "json", "$.aggregates.mean_q: expected a finite"),
        (("aggregates", "fault_recall"), [], "json", "$.aggregates.fault_recall: expected a"),
        (("seed",), True, "json", "$.seed: expected an integer"),
        (("schema",), 2, "json", "$.schema: unsupported version 2"),
        (("schema",), REMOVE, "json", "$: missing field 'schema'"),
    ],
    ids=[
        "schedule-of-ints",
        "schedule-a-string",
        "failed-empty-id",
        "total-cost-a-bool",
        "candidate-count-a-float",
        "q-value-a-string",
        "regall-match-an-int",
        "mean-q-infinity",
        "fault-recall-a-list",
        "seed-a-bool",
        "schema-2",
        "schema-missing",
    ],
)
def test_malformed_report_fails_cleanly(config_file, tmp_path, capsys, keys, value, fmt, names):
    report = tmp_path / "report.json"
    assert run_cli("simulate", "--config", config_file, "--out", report) == 0
    report.write_text(json.dumps(_mutated(json.loads(report.read_text()), keys, value)))
    code = run_cli("report", "--in", report, "--format", fmt, "--out", tmp_path / "out")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert names in err
    assert "Traceback" not in err


class TestFileBoundaryFuzz:
    @given(st.sampled_from(list(_paths(FUZZ_HISTORY))), st.sampled_from(FUZZ_VALUES))
    @settings(max_examples=150, deadline=None)
    def test_mutated_history_through_trace_record(self, path, value):
        with tempfile.TemporaryDirectory() as tmp:
            history = Path(tmp) / "history.json"
            history.write_text(json.dumps(_mutated(FUZZ_HISTORY, path, value)))
            _assert_clean_exit(
                *_run_quietly(
                    "trace", "record", "--history", history, *RECORD_ARGS,
                    "--out", Path(tmp) / "trace.json",
                )
            )

    @given(st.sampled_from(list(_paths(_recorded_trace()))), st.sampled_from(FUZZ_VALUES))
    @example(*_record_repeating_its_first_id())
    @settings(max_examples=150, deadline=None)
    def test_mutated_trace_through_trace_replay(self, path, value):
        with tempfile.TemporaryDirectory() as tmp:
            history, trace = Path(tmp) / "history.json", Path(tmp) / "trace.json"
            history.write_text(json.dumps(FUZZ_HISTORY))
            trace.write_text(json.dumps(_mutated(_recorded_trace(), path, value)))
            _assert_clean_exit(
                *_run_quietly("trace", "replay", "--history", history, "--trace", trace)
            )

    @given(st.sampled_from(list(_paths(FUZZ_REPORT))), st.sampled_from(FUZZ_VALUES))
    @settings(max_examples=150, deadline=None)
    def test_mutated_report_through_report_csv(self, path, value):
        with tempfile.TemporaryDirectory() as tmp:
            report = Path(tmp) / "report.json"
            report.write_text(json.dumps(_mutated(FUZZ_REPORT, path, value)))
            _assert_clean_exit(
                *_run_quietly(
                    "report", "--in", report, "--format", "csv", "--out", Path(tmp) / "out.csv"
                )
            )
