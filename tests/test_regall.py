import dataclasses
import gc
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import DIVERGED, build, run_tests_oracle, story, tc, two_builds
from regsched import RegAllReport, Rtw, Schedule, Verdict, failed_ids, reg_all, run_tests
from regsched.errors import BoundedWindowError, UndefinedExecutionError

UNBOUNDED = Rtw.unbounded()
POOL = [f"t{i}" for i in range(8)]
OUTCOME = st.sampled_from(["ok", "bad", "flaky"])


def programs(prev_behavior, next_behavior):
    """Two builds whose programs hold exactly the given behavior maps."""
    b_prev = build(1, [], behavior_overrides=prev_behavior)
    return b_prev, build(2, [], behavior_overrides=next_behavior)


def outcome_or_error(run, *args):
    try:
        return run(*args)
    except UndefinedExecutionError as exc:
        return str(exc)


class TestRegAll:
    def test_identical_behavior_yields_one(self):
        b1, b2 = two_builds(shared=[tc("a"), tc("b")])
        report = reg_all(b1, b2, UNBOUNDED)
        assert report.result == 1
        assert report.first_inconsistent is None
        assert not report.vacuous

    def test_single_divergence_yields_zero(self):
        b1, b2 = two_builds(shared=[tc("a"), tc("b"), tc("c")], diverge=["b"])
        report = reg_all(b1, b2, UNBOUNDED)
        assert report.result == 0
        assert report.first_inconsistent == "b"

    def test_first_inconsistent_is_lowest_id(self):
        b1, b2 = two_builds(shared=[tc("a"), tc("b"), tc("c")], diverge=["c", "b"])
        assert reg_all(b1, b2, UNBOUNDED).first_inconsistent == "b"

    def test_empty_overlap_is_vacuously_consistent(self):
        b1 = build(1, [tc("a")])
        b2 = build(2, [tc("b")])
        report = reg_all(b1, b2, UNBOUNDED)
        assert report.result == 1
        assert report.vacuous
        assert report.verdicts == ()

    def test_bounded_window_rejected(self):
        b1, b2 = two_builds(shared=[tc("a")])
        with pytest.raises(BoundedWindowError):
            reg_all(b1, b2, Rtw.of_budget(100))

    def test_missing_behavior_entry_rejected(self):
        b1, b2 = two_builds(shared=[tc("a")])
        stripped = dataclasses.replace(
            b2, program=dataclasses.replace(b2.program, behavior={})
        )
        with pytest.raises(UndefinedExecutionError):
            reg_all(b1, stripped, UNBOUNDED)

    def test_verdicts_cover_overlap_in_id_order(self):
        b1, b2 = two_builds(shared=[tc("c"), tc("a"), tc("b")], prev_only=[tc("z")])
        report = reg_all(b1, b2, UNBOUNDED)
        assert [v.test_id for v in report.verdicts] == ["a", "b", "c"]

    def test_result_ignores_tests_outside_overlap(self):
        shared = [tc("a")]
        b1 = build(1, shared + [tc("x")])
        # x exists only in build 1 and would diverge if compared.
        b2 = build(2, shared + [tc("y")], behavior_overrides={"y": DIVERGED})
        assert reg_all(b1, b2, UNBOUNDED).result == 1

    def test_report_carries_no_acceptance_decision(self):
        # The binary result is not a build verdict; no such field exists.
        names = {f.name for f in dataclasses.fields(RegAllReport)}
        assert names == {"result", "verdicts", "first_inconsistent", "vacuous"}

    @given(
        st.dictionaries(st.integers(0, 6), st.sampled_from(["ok", "bad"]), max_size=7),
        st.sets(st.integers(0, 6), max_size=7),
    )
    def test_truth_table_matches_enumeration_oracle(self, outcomes, right_ids):
        # Build an overlap with arbitrary next-build outcomes, then check
        # the result against a direct walk over the shared ids.
        left = [tc(f"t{i}") for i in outcomes]
        right = [tc(f"t{i}") for i in set(outcomes) | right_ids]
        b1 = build(1, left)
        b2 = build(
            2,
            right,
            behavior_overrides={
                f"t{i}": ("ok-" + f"t{i}" if tok == "ok" else DIVERGED)
                for i, tok in outcomes.items()
            },
        )
        shared = {t.id for t in left} & {t.id for t in right}
        oracle = all(
            b1.program.behavior[t] == b2.program.behavior[t] for t in shared
        )
        assert reg_all(b1, b2, UNBOUNDED).result == (1 if oracle else 0)

    @given(
        st.sets(st.integers(0, 5), min_size=1, max_size=6),
        st.sets(st.integers(0, 5), max_size=6),
    )
    def test_swapping_builds_preserves_result(self, shared_ids, diverge_pick):
        shared = [tc(f"t{i}") for i in shared_ids]
        diverge = [f"t{i}" for i in diverge_pick & shared_ids]
        b1, b2 = two_builds(shared=shared, diverge=diverge)
        assert reg_all(b1, b2, UNBOUNDED).result == reg_all(b2, b1, UNBOUNDED).result


class TestRunTests:
    def test_execution_order_is_preserved(self):
        b1, b2 = two_builds(shared=[tc("a"), tc("b")], diverge=["a"])
        verdicts = run_tests(b1, b2, ["b", "a"])
        assert [v.test_id for v in verdicts] == ["b", "a"]
        assert [v.consistent for v in verdicts] == [True, False]

    def test_verdict_consistency_is_derived(self):
        b1, b2 = two_builds(shared=[tc("a")], diverge=["a"])
        (verdict,) = run_tests(b1, b2, ["a"])
        assert verdict.outcome_prev == "ok-a"
        assert verdict.outcome_next == DIVERGED
        assert not verdict.consistent

    @given(st.data())
    def test_matches_per_test_oracle(self, data):
        ids = data.draw(st.lists(st.sampled_from(POOL), unique=True))
        prev = data.draw(st.lists(OUTCOME, min_size=len(ids), max_size=len(ids)))
        nxt = data.draw(st.lists(OUTCOME, min_size=len(ids), max_size=len(ids)))
        b1, b2 = programs(dict(zip(ids, prev)), dict(zip(ids, nxt)))
        expected = run_tests_oracle(b1, b2, ids)
        for given_ids in (ids, tuple(ids), (i for i in ids)):
            verdicts = run_tests(b1, b2, given_ids)
            assert [(*v, v.consistent) for v in verdicts] == expected
            assert all(type(v) is Verdict for v in verdicts)
            assert failed_ids(verdicts) == [row[0] for row in expected if not row[3]]

    @given(
        st.lists(st.sampled_from(POOL), unique=True),
        st.dictionaries(st.sampled_from(POOL), OUTCOME),
        st.dictionaries(st.sampled_from(POOL), OUTCOME),
    )
    def test_missing_entries_raise_like_the_oracle(self, ids, prev, nxt):
        b1, b2 = programs(prev, nxt)
        expected = outcome_or_error(run_tests_oracle, b1, b2, ids)
        actual = outcome_or_error(run_tests, b1, b2, iter(ids))
        if isinstance(expected, str):
            assert actual == expected
        else:
            assert [(*v, v.consistent) for v in actual] == expected

    @pytest.mark.parametrize(
        "prev, nxt, program, test_id",
        [
            ({"a": "x", "b": "x"}, {"a": "x", "c": "x"}, 2, "b"),
            ({"a": "x", "c": "x"}, {"a": "x", "b": "x"}, 1, "b"),
            ({"a": "x"}, {"a": "x"}, 1, "b"),
            ({"b": "x", "c": "x"}, {"b": "x", "c": "x"}, 1, "a"),
        ],
        ids=["next-lacks-b", "prev-lacks-b", "both-lack-b", "both-lack-a"],
    )
    def test_first_missing_entry_in_order_is_named(self, prev, nxt, program, test_id):
        b1, b2 = programs(prev, nxt)
        with pytest.raises(UndefinedExecutionError) as exc:
            run_tests(b1, b2, ["a", "b", "c"])
        assert str(exc.value) == f"program {program} has no behavior entry for test {test_id!r}"


class TestVerdict:
    def test_keyword_construction_and_tuple_equality(self):
        verdict = Verdict(test_id="a", outcome_prev="ok", outcome_next="ok")
        assert verdict == ("a", "ok", "ok")
        assert verdict.consistent
        assert not Verdict("a", "ok", "bad").consistent

    def test_consistent_is_not_a_field(self):
        assert Verdict._fields == ("test_id", "outcome_prev", "outcome_next")

    @pytest.mark.parametrize("name", ["test_id", "outcome_prev", "outcome_next", "consistent"])
    def test_attributes_are_read_only(self, name):
        verdict = Verdict("a", "ok", "bad")
        with pytest.raises(AttributeError):
            setattr(verdict, name, "other")
        assert verdict == ("a", "ok", "bad") and not verdict.consistent


def python_calls(run) -> int:
    """The Python frames ``run()`` enters: calls and generator resumptions."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # A collection during run() would call the gc callback hypothesis
    # installs: a Python frame that run() itself never enters.
    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return calls


def scenario_calls(n: int) -> dict[str, int]:
    """Python frames per scenario-path call on ``n`` tests (every third diverging) and stories."""
    tests = [tc(f"t{i:03d}") for i in range(n)]
    stories = [story(f"s{i:03d}") for i in range(n)]
    b1, b2 = two_builds(tests, diverge=[t.id for t in tests[::3]], stories=stories)
    ids = [t.id for t in tests]
    verdicts = run_tests(b1, b2, ids)
    durations = {t.id: t.duration for t in tests}
    runs = {
        "run_tests": lambda: run_tests(b1, b2, ids),
        "reg_all": lambda: reg_all(b1, b2, UNBOUNDED),
        "Build.test_ids": b2.test_ids,
        "Build.story_ids": b2.story_ids,
        "Schedule.from_ids": lambda: Schedule.from_ids(ids, durations),
        "failed_ids": lambda: failed_ids(verdicts),
    }
    return {name: python_calls(run) for name, run in runs.items()}


def test_no_python_frame_per_test():
    assert scenario_calls(10) == scenario_calls(100)
