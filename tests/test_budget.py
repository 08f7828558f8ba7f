import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import feasible_prefix_oracle, tc
from regsched import Rtw, Schedule, feasible_prefix, scope, scope_bruteforce
from regsched.budget import durations_by_id
from regsched.errors import ConfigurationError, EngineLimitError, InvalidCostError

costs_strategy = st.lists(st.integers(1, 20), min_size=0, max_size=8)


def suite(costs):
    return [tc(f"t{i:02d}", exectime=c, setup=0) for i, c in enumerate(costs)]


class TestCost:
    """A test's cost is its duration, priced by ``durations_by_id``."""

    def test_sum_of_exectime_and_setup(self):
        assert durations_by_id([tc("a", exectime=3, setup=2)]) == {"a": 5}

    def test_zero_total_duration_rejected(self):
        # Pricing reads a zero cost; the operations that need a positive one reject it.
        assert durations_by_id([tc("a", exectime=0, setup=0)]) == {"a": 0}
        for operation in (scope, scope_bruteforce):
            with pytest.raises(InvalidCostError, match="'a'"):
                operation([tc("a", exectime=0, setup=0)], Rtw.of_budget(5))

    def test_zero_setup_allowed(self):
        assert durations_by_id([tc("a", exectime=7, setup=0)]) == {"a": 7}


class TestRtw:
    def test_budget_is_end_minus_start(self):
        assert Rtw(start=3, end=10).budget() == 7

    def test_unbounded_budget_is_none(self):
        window = Rtw.unbounded()
        assert window.is_unbounded
        assert window.budget() is None

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            Rtw(start=5, end=4)

    def test_of_budget(self):
        assert Rtw.of_budget(9).budget() == 9
        assert Rtw.of_budget(None).is_unbounded


class TestScope:
    def test_known_instance(self):
        # Brute-forced over all 16 subsets: no 3 costs fit in 9, two do.
        result = scope(suite([3, 5, 7, 2]), Rtw.of_budget(9))
        assert result.count == 2
        assert result.total_cost <= 9

    def test_zero_budget_admits_nothing(self):
        result = scope(suite([3, 5]), Rtw.of_budget(0))
        assert result.count == 0
        assert result.witness == ()

    def test_unbounded_admits_everything(self):
        tests = suite([3, 5, 7])
        result = scope(tests, Rtw.unbounded())
        assert result.count == 3
        assert set(result.witness) == {t.id for t in tests}
        assert result.total_cost == 15

    def test_invalid_cost_propagates(self):
        # The error names the smallest zero-cost id.
        tests = [tc("c", 0, 0), tc("a", 2, 0), tc("b", 0, 0)]
        with pytest.raises(InvalidCostError, match="'b'"):
            scope(tests, Rtw.of_budget(5))

    @pytest.mark.parametrize(
        "window", [Rtw.of_budget(10), Rtw.unbounded()], ids=["bounded", "unbounded"]
    )
    def test_repeated_candidate_id_is_rejected(self, window):
        tests = [tc("a", 1, 0), tc("a", 5, 0), tc("b", 1, 0)]
        with pytest.raises(ConfigurationError, match="'a'") as exc:
            scope(tests, window)
        assert exc.value.field == "candidates"

    def test_witness_ties_break_by_id(self):
        tests = [tc("b", exectime=4, setup=0), tc("a", exectime=4, setup=0)]
        result = scope(tests, Rtw.of_budget(4))
        assert result.witness == ("a",)


class TestScopeBruteforce:
    def test_empty_set(self):
        assert scope_bruteforce([], Rtw.of_budget(5)).count == 0

    def test_unit_costs(self):
        assert scope_bruteforce(suite([1, 1, 1]), Rtw.of_budget(2)).count == 2

    def test_single_infeasible_item(self):
        assert scope_bruteforce(suite([10]), Rtw.of_budget(9)).count == 0

    def test_enumeration_guard(self):
        assert scope_bruteforce(suite([1] * 20), Rtw.of_budget(5)).count == 5
        with pytest.raises(EngineLimitError, match="21 candidates exceed the enumeration guard of 20"):
            scope_bruteforce(suite([1] * 21), Rtw.of_budget(5))

    @pytest.mark.parametrize(
        "window", [Rtw.of_budget(10), Rtw.unbounded()], ids=["bounded", "unbounded"]
    )
    def test_repeated_candidate_id_is_rejected(self, window):
        tests = [tc("a", 1, 0), tc("a", 5, 0), tc("b", 1, 0)]
        with pytest.raises(ConfigurationError, match="'a'") as exc:
            scope_bruteforce(tests, window)
        assert exc.value.field == "candidates"

    def test_zero_cost_error_names_the_smallest_zero_cost_id(self):
        tests = [tc("c", 0, 0), tc("a", 2, 0), tc("b", 0, 0)]
        with pytest.raises(InvalidCostError, match="'b'"):
            scope_bruteforce(tests, Rtw.of_budget(5))


class TestScopeProperties:
    @given(costs_strategy, st.integers(0, 60))
    @settings(max_examples=150)
    def test_matches_bruteforce(self, costs, budget):
        tests = suite(costs)
        window = Rtw.of_budget(budget)
        assert scope(tests, window).count == scope_bruteforce(tests, window).count

    @given(costs_strategy, st.integers(0, 50), st.integers(1, 30))
    def test_monotone_in_budget(self, costs, small, delta):
        tests = suite(costs)
        narrow = scope(tests, Rtw.of_budget(small)).count
        wide = scope(tests, Rtw.of_budget(small + delta)).count
        assert narrow <= wide

    @given(costs_strategy)
    def test_saturation(self, costs):
        tests = suite(costs)
        assert scope(tests, Rtw.of_budget(sum(costs))).count == len(costs)

    @given(costs_strategy, st.integers(0, 40))
    def test_witness_is_feasible_and_consistent(self, costs, budget):
        tests = suite(costs)
        result = scope(tests, Rtw.of_budget(budget))
        by_id = {t.id: t for t in tests}
        recomputed = sum(by_id[i].duration for i in result.witness)
        assert recomputed == result.total_cost <= budget
        assert len(result.witness) == result.count

    @given(costs_strategy, st.integers(0, 40), st.data())
    def test_subset_monotonicity(self, costs, budget, data):
        tests = suite(costs)
        subset = data.draw(st.sets(st.sampled_from(tests)) if tests else st.just(set()))
        window = Rtw.of_budget(budget)
        assert scope(subset, window).count <= scope(tests, window).count


class TestSchedule:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Schedule(("a", "a"), 10)

    def test_from_ids_computes_cost(self):
        sched = Schedule.from_ids(["b", "a"], {"a": 3, "b": 4}, technique="x")
        assert sched.total_cost == 7
        assert sched.ids == ("b", "a")
        assert sched.meta["technique"] == "x"

    def test_feasible_prefix_stops_at_first_overflow(self):
        ids, total = feasible_prefix(["a", "b", "c"], {"a": 2, "b": 3, "c": 4}, Rtw.of_budget(5))
        assert ids == ("a", "b")
        assert total == 5


class TestFeasiblePrefix:
    @settings(max_examples=300, deadline=None)
    @given(
        costs=st.lists(st.integers(0, 6), max_size=12),
        budget=st.one_of(st.none(), st.integers(0, 40)),
        as_iterator=st.booleans(),
    )
    @example(costs=[], budget=None, as_iterator=False)
    @example(costs=[], budget=0, as_iterator=True)
    @example(costs=[0, 0, 3, 0], budget=0, as_iterator=False)
    @example(costs=[2, 3, 4], budget=5, as_iterator=True)
    @example(costs=[2, 3, 4], budget=9, as_iterator=False)
    @example(costs=[5, 0, 0], budget=4, as_iterator=False)
    @example(costs=[1, 2, 3], budget=None, as_iterator=True)
    def test_matches_the_walking_oracle(self, costs, budget, as_iterator):
        ids = [f"t{i:02d}" for i in range(len(costs))]
        durations = dict(zip(ids, costs))
        window = Rtw.of_budget(budget)
        got = feasible_prefix(iter(ids) if as_iterator else ids, durations, window)
        assert got == feasible_prefix_oracle(ids, durations, window)

    def test_a_prefix_that_fits_exactly_is_kept_whole(self):
        durations = {"a": 2, "b": 3, "c": 0, "d": 1}
        assert feasible_prefix("abcd", durations, Rtw.of_budget(5)) == (("a", "b", "c"), 5)

    @pytest.mark.parametrize("window", [Rtw.of_budget(3), Rtw.of_budget(100), Rtw.unbounded()])
    @pytest.mark.parametrize("position", [0, 2, 3])
    def test_an_unpriced_id_anywhere_raises(self, window, position):
        """Every id must be priced, after the cut too (an id past the cut used to be ignored)."""
        ids = ["a", "b", "c"]
        ids.insert(position, "ghost")
        with pytest.raises(KeyError, match="ghost"):
            feasible_prefix(ids, {"a": 2, "b": 2, "c": 2}, window)
