from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import apfd_area_oracle, tc, two_builds
from regsched import (
    MetricContext,
    Verdict,
    apfd,
    coverage_metric,
    failed_ids,
    fault_count_metric,
    first_detection_positions,
    metric_by_name,
    run_tests,
)
from regsched.errors import ConfigurationError, UndefinedMetricError


class TestApfdWorkedValues:
    def test_first_detections_at_one_and_three(self):
        order = ["t1", "t2", "t3", "t4", "t5"]
        faults = {"f1": {"t1"}, "f2": {"t3"}}
        value = apfd(order, faults)
        assert value == apfd_area_oracle(order, faults)
        assert value == 0.7

    def test_single_test_single_fault(self):
        assert apfd(["t1"], {"f1": {"t1"}}) == 0.5

    def test_all_faults_detected_by_first_test(self):
        # Symbolically 1 - 1/n + 1/(2n); checked against the prefix curve.
        order = ["t1", "t2", "t3", "t4"]
        faults = {f"f{i}": {"t1"} for i in range(3)}
        value = apfd(order, faults)
        assert value == apfd_area_oracle(order, faults)
        assert value == float(1 - Fraction(1, 4) + Fraction(1, 8))


class TestApfdEdges:
    def test_undetected_fault_counts_position_n_plus_one(self):
        order = ["t1", "t2"]
        positions = first_detection_positions(order, {"f1": {"zz"}, "f2": {"t2"}})
        assert positions == {"f1": 3, "f2": 2}
        # 1 - (3+2)/(2*2) + 1/4 = 0
        assert apfd(order, {"f1": {"zz"}, "f2": {"t2"}}) == 0.0

    def test_empty_order_with_faults_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            apfd([], {"f1": {"t1"}})

    def test_no_faults_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            apfd(["t1"], {})

    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.dictionaries(
                    st.text("fg", min_size=1, max_size=3),
                    st.sets(st.integers(0, n - 1), min_size=1),
                    min_size=1,
                    max_size=5,
                ),
            )
        )
    )
    @settings(max_examples=80)
    def test_bounds_when_all_faults_detected(self, case):
        n, raw = case
        order = [f"t{i}" for i in range(n)]
        faults = {f: {f"t{i}" for i in picks} for f, picks in raw.items()}
        value = apfd(order, faults)
        assert 0 < value < 1 + 1 / (2 * n)
        assert value == apfd_area_oracle(order, faults)

    def test_repeated_test_counts_at_its_first_position(self):
        order = ["a", "b", "a"]
        assert first_detection_positions(order, {"f": {"a"}}) == {"f": 1}
        assert apfd(order, {"f": {"a"}}) == 5 / 6

    @given(
        st.lists(st.sampled_from([f"t{i}" for i in range(60)]), min_size=1, max_size=60),
        st.dictionaries(
            st.integers(0, 40),
            st.frozensets(st.sampled_from([f"t{i}" for i in range(70)]), max_size=5),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=300)
    def test_equals_the_rational_formula_rounded_once(self, order, faults):
        # Repeats in the order and detectors outside it are allowed.
        n, m = len(order), len(faults)
        tf_sum = sum(first_detection_positions(order, faults).values())
        assert apfd(order, faults) == float(1 - Fraction(tf_sum, n * m) + Fraction(1, 2 * n))

    def test_moving_detector_earlier_improves(self):
        faults = {"f1": {"t3"}}
        later = apfd(["t1", "t2", "t3"], faults)
        earlier = apfd(["t3", "t1", "t2"], faults)
        assert earlier > later


class TestBuiltinMetrics:
    def test_fault_count(self):
        metric = fault_count_metric()
        ctx = MetricContext(faults={"f1": frozenset({"a"}), "f2": frozenset({"b"})})
        assert metric.evaluate(["a"], ctx) == 1.0
        assert metric.evaluate(["a", "b"], ctx) == 2.0
        assert metric.evaluate([], ctx) == 0.0

    def test_coverage_fraction(self):
        metric = coverage_metric()
        ctx = MetricContext(
            coverage={"s1": frozenset({"a"}), "s2": frozenset({"b", "c"})}
        )
        assert metric.evaluate(["a"], ctx) == 0.5
        assert metric.evaluate(["a", "c"], ctx) == 1.0

    def test_coverage_vacuous_without_requirements(self):
        assert coverage_metric().evaluate(["a"], MetricContext()) == 1.0

    def test_registry_resolves_known_names(self):
        for name in ("apfd", "fault-count", "coverage"):
            assert metric_by_name(name).name == name

    def test_registry_rejects_unknown_names(self):
        with pytest.raises(ConfigurationError):
            metric_by_name("nope")

    def test_context_from_verdicts_marks_failures_as_faults(self):
        b1, b2 = two_builds(shared=[tc("a"), tc("b")], diverge=["b"])
        verdicts = run_tests(b1, b2, ["a", "b"])
        ctx = MetricContext.from_failures(failed_ids(verdicts))
        assert set(ctx.faults) == {"fail:b"}
        assert ctx.faults["fail:b"] == frozenset({"b"})

    @given(st.lists(st.tuples(st.sampled_from("abcdef"), st.booleans()), max_size=8,
                    unique_by=lambda row: row[0]))
    @settings(max_examples=100, deadline=None)
    def test_from_failures_keeps_the_failed_verdicts_in_order(self, rows):
        verdicts = [Verdict(t, "ok", "ok" if passed else "broke") for t, passed in rows]
        failed = [t for t, passed in rows if not passed]
        ctx = MetricContext.from_failures(failed_ids(verdicts))
        assert list(ctx.faults) == [f"fail:{t}" for t in failed]
        assert all(ctx.faults[f"fail:{t}"] == {t} for t in failed)
