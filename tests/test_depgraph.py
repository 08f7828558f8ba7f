import random
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import affected_oracle, failure_score_oracle
from regsched import (
    ChangeSet,
    ExecutionHistory,
    ExecutionRecord,
    Rtw,
    affected_tests,
    build_graph,
    failure_score,
    order_by_history,
    update_graph,
)
from regsched.errors import ConfigurationError, MalformedGraphError, UnknownNodeError


def small_graph():
    # t1 -> c1 -> c2, t2 -> c2, t3 isolated from the changed region.
    return build_graph(
        classes=["c1", "c2", "c3"],
        tests=["t1", "t2", "t3"],
        class_deps=[("c1", "c2")],
        test_links=[("t1", "c1"), ("t2", "c2"), ("t3", "c3")],
    )


def random_graph(rng, max_nodes=12):
    n_classes = rng.randint(1, max_nodes - 1)
    n_tests = rng.randint(1, max_nodes - n_classes)
    classes = [f"c{i}" for i in range(n_classes)]
    tests = [f"t{i}" for i in range(n_tests)]
    class_deps = {
        (a, b)
        for a in classes
        for b in classes
        if a != b and rng.random() < 0.25
    }
    test_links = {(t, rng.choice(classes)) for t in tests if rng.random() < 0.9}
    return build_graph(classes, tests, class_deps, test_links)


class TestBuildGraph:
    def test_no_edges_leaves_isolated_nodes_and_selects_nothing(self):
        g = build_graph(["c1"], ["t1"], [], [])
        assert (g.classes, g.tests) == ({"c1"}, {"t1"})
        assert affected_tests(g, {"c1"}, {"t1"}) == frozenset()

    def test_minimal_chain(self):
        g = build_graph(["c", "d"], ["t"], [("c", "d")], [("t", "c")])
        assert len(g.classes | g.tests) == 3

    def test_duplicate_edges_collapse(self):
        # Oracle: the deduplicated edge set.
        edges = [("t", "c"), ("t", "c"), ("t", "c")]
        g = build_graph(["c"], ["t"], [], edges)
        assert g.test_links == frozenset(set(edges))
        assert len(g.test_links) == 1

    def test_dangling_endpoint_rejected(self):
        with pytest.raises(MalformedGraphError):
            build_graph(["c1"], ["t1"], [("c1", "ghost")], [])
        with pytest.raises(MalformedGraphError):
            build_graph(["c1"], [], [], [("ghost", "c1")])

    def test_self_loop_rejected(self):
        with pytest.raises(MalformedGraphError):
            build_graph(["c1"], [], [("c1", "c1")], [])

    def test_overlapping_class_and_test_ids_rejected(self):
        with pytest.raises(MalformedGraphError):
            build_graph(["x"], ["x"], [], [])


class TestUpdateGraph:
    def test_empty_changeset_is_identity(self):
        g = small_graph()
        assert update_graph(g, ChangeSet()) == g

    def test_removing_a_class_drops_incident_edges(self):
        g = small_graph()
        updated = update_graph(g, ChangeSet(removed_classes=frozenset({"c2"})))
        # Oracle: scan every remaining edge for the removed endpoint.
        assert all("c2" not in edge for edge in updated.class_deps | updated.test_links)
        assert "c2" not in updated.classes

    def test_adding_class_and_edge_together(self):
        g = small_graph()
        updated = update_graph(
            g,
            ChangeSet(
                added_classes=frozenset({"c4"}),
                added_class_deps=frozenset({("c3", "c4")}),
            ),
        )
        assert "c4" in updated.classes
        assert ("c3", "c4") in updated.class_deps

    def test_removing_unknown_node_rejected(self):
        with pytest.raises(UnknownNodeError):
            update_graph(small_graph(), ChangeSet(removed_classes=frozenset({"ghost"})))

    def test_changed_classes_must_exist_after_update(self):
        with pytest.raises(UnknownNodeError):
            update_graph(small_graph(), ChangeSet(changed_classes=frozenset({"ghost"})))


class TestAffectedTests:
    def test_no_changes_impact_nothing(self):
        assert affected_tests(small_graph(), frozenset(), {"t1", "t2", "t3"}) == frozenset()

    def test_direct_dependency(self):
        assert affected_tests(small_graph(), {"c1"}, {"t1", "t2", "t3"}) == {"t1"}

    def test_transitive_dependency(self):
        # t1 -> c1 -> c2: changing c2 reaches t1 through one hop, and t2
        # directly. Confirmed by full path enumeration on the 5-node graph.
        g = small_graph()
        got = affected_tests(g, {"c2"}, {"t1", "t2", "t3"})
        assert got == affected_oracle(g, {"c2"}, {"t1", "t2", "t3"}) == {"t1", "t2"}

    def test_unknown_changed_class_rejected(self):
        with pytest.raises(UnknownNodeError):
            affected_tests(small_graph(), {"ghost"}, {"t1"})

    def test_result_is_intersected_with_candidates(self):
        assert affected_tests(small_graph(), {"c2"}, {"t2"}) == {"t2"}

    @given(st.integers(0, 100_000))
    @settings(max_examples=120, deadline=None)
    def test_matches_path_enumeration_oracle(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng)
        changed = frozenset(c for c in g.classes if rng.random() < 0.4)
        candidates = frozenset(t for t in g.tests if rng.random() < 0.8)
        assert affected_tests(g, changed, candidates) == affected_oracle(g, changed, candidates)

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_changed_classes(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng)
        classes = sorted(g.classes)
        smaller = frozenset(rng.sample(classes, rng.randint(0, len(classes))))
        larger = smaller | frozenset(rng.sample(classes, rng.randint(0, len(classes))))
        assert affected_tests(g, smaller, g.tests) <= affected_tests(g, larger, g.tests)

    def test_update_far_away_preserves_local_result(self):
        g = small_graph()
        before = affected_tests(g, {"c1"}, {"t1", "t2"})
        updated = update_graph(
            g,
            ChangeSet(
                added_classes=frozenset({"c9"}),
                added_class_deps=frozenset({("c3", "c9")}),
            ),
        )
        assert affected_tests(updated, {"c1"}, {"t1", "t2"}) == before


    def test_cached_inversion_stays_out_of_the_value(self):
        g, fresh = small_graph(), small_graph()
        shown = repr(g)
        assert affected_tests(g, {"c2"}, g.tests) == {"t1", "t2"}
        assert "_upstream" in vars(g)
        assert g == fresh and hash(g) == hash(fresh)
        assert repr(g) == repr(fresh) == shown

    def test_an_updated_graph_inverts_its_own_edges(self):
        g = small_graph()
        assert affected_tests(g, {"c1"}, g.tests) == {"t1"}
        updated = update_graph(g, ChangeSet(added_test_links=frozenset({("t3", "c1")})))
        assert affected_tests(updated, {"c1"}, updated.tests) == {"t1", "t3"}
        assert affected_tests(g, {"c1"}, g.tests) == {"t1"}


class TestExecutionHistory:
    def test_records_accumulate_in_order(self):
        history = ExecutionHistory()
        history.add("a", 1, True)
        history.add("a", 3, False)
        assert history.records("a") == (ExecutionRecord(1, True), ExecutionRecord(3, False))

    def test_a_record_holds_only_the_build_and_the_outcome(self):
        assert [f.name for f in fields(ExecutionRecord)] == ["build_index", "passed"]

    def test_decreasing_build_index_rejected(self):
        history = ExecutionHistory()
        history.add("a", 5, True)
        with pytest.raises(ValueError):
            history.add("a", 4, True)

    def test_unknown_test_has_no_records(self):
        assert ExecutionHistory().records("zz") == ()

    @given(
        st.lists(
            st.tuples(
                st.integers(1, 4),
                st.lists(st.tuples(*[st.sampled_from(v) for v in ("abc", "xy", "xy")]), max_size=4),
            ),
            max_size=6,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_a_bulk_build_equals_one_add_per_verdict(self, builds):
        # Unsorted build indices make some builds fail part-way through.
        bulk, single = ExecutionHistory(), ExecutionHistory()
        for build_index, verdicts in builds:
            errors = []
            for log in (
                lambda: bulk.add_build(build_index, verdicts),
                lambda: [single.add(t, build_index, a == b) for t, a, b in verdicts],
            ):
                try:
                    log()
                    errors.append(None)
                except ValueError as exc:
                    errors.append(str(exc))
            assert errors[0] == errors[1]
        for test_id in "abc":
            assert bulk.records(test_id) == single.records(test_id)


class TestOrderByHistory:
    def history_with(self, rates):
        # rates: test id -> sequence of pass/fail booleans, oldest first.
        history = ExecutionHistory()
        for test_id, outcomes in rates.items():
            for n, passed in enumerate(outcomes, start=1):
                history.add(test_id, n, passed)
        return history

    @pytest.mark.parametrize("recent", [0, -3])
    def test_recent_below_one_is_rejected(self, recent):
        history = self.history_with({"a": [True, False]})
        with pytest.raises(ConfigurationError) as exc:
            failure_score(history, "a", recent=recent)
        assert exc.value.field == "recent"

    def test_cold_start_prior_is_neutral(self):
        assert failure_score(ExecutionHistory(), "zz") == 0.5

    def test_recency_weighted_rate(self):
        # Three runs, newest first weights 3,2,1: failures in the two
        # newest runs score (3+2)/6.
        history = self.history_with({"a": [True, False, False]})
        assert failure_score(history, "a") == pytest.approx(5 / 6)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.booleans(), max_size=12), st.integers(1, 8))
    def test_score_matches_the_spelled_out_weights(self, outcomes, recent):
        history = self.history_with({"a": outcomes})
        assert failure_score(history, "a", recent) == failure_score_oracle(history, "a", recent)

    def test_single_test_fits_or_not(self):
        history = ExecutionHistory()
        fits = order_by_history({"a"}, history, Rtw.of_budget(5), {"a": 5})
        assert fits.ids == ("a",)
        starved = order_by_history({"a"}, history, Rtw.of_budget(4), {"a": 5})
        assert starved.ids == ()

    def test_high_failure_rate_runs_first(self):
        # a fails all of its recent runs, b passes all of them.
        history = self.history_with(
            {"a": [True] + [False] * 9, "b": [False] + [True] * 9}
        )
        assert failure_score(history, "a", recent=5) == 1.0
        assert failure_score(history, "b", recent=5) == 0.0
        sched = order_by_history(
            {"a", "b"}, history, Rtw.of_budget(10), {"a": 3, "b": 3}
        )
        assert sched.ids == ("a", "b")

    def test_equal_scores_prefer_shorter_duration(self):
        history = ExecutionHistory()
        sched = order_by_history(
            {"long", "short"}, history, Rtw.of_budget(4), {"long": 4, "short": 2}
        )
        # Both score the cold-start prior; the shorter test leads and the
        # budget then admits only it.
        assert sched.ids == ("short",)

    def test_deterministic_and_budget_bounded(self):
        history = self.history_with({"a": [False], "b": [True], "c": [False, True]})
        durations = {"a": 2, "b": 3, "c": 4}
        window = Rtw.of_budget(6)
        first = order_by_history({"a", "b", "c"}, history, window, durations)
        second = order_by_history({"a", "b", "c"}, history, window, durations)
        assert first == second
        assert first.total_cost <= 6
        assert set(first.ids) <= {"a", "b", "c"}
