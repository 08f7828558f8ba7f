from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build, chain_of, story, tc, two_builds, unshared
from regsched import (
    Build,
    BuildChain,
    Iteration,
    ProgramVersion,
    Region,
    Rtw,
    ScenarioConfig,
    TestCase,
    Transition,
    TransitionKind,
    UserStory,
    classify_region,
    classify_transition,
    diverged_tests,
    generate_chain,
    infer_changed_classes,
    make_release,
    ordered_candidates,
    run_tests,
    transition_deltas,
)
from regsched.errors import (
    BuildOrderError,
    InvalidClassificationError,
    InvalidRangeError,
    MalformedBuildError,
    UnclassifiableTransitionError,
    UndefinedExecutionError,
)


class TestBasicTypes:
    def test_duration_is_exectime_plus_setup(self):
        assert tc("a", exectime=3, setup=2).duration == 5

    def test_zero_duration_is_constructible(self):
        # Positivity is enforced where costs are priced, not at construction.
        assert tc("a", exectime=0, setup=0).duration == 0

    @pytest.mark.parametrize("kwargs", [{"exectime": -1}, {"setup": -2}])
    def test_negative_times_rejected(self, kwargs):
        with pytest.raises(ValueError):
            tc("a", **kwargs)

    def test_empty_test_id_rejected(self):
        with pytest.raises(ValueError):
            TestCase(id="", inp="i", expected="o", exectime=1, setup=0)

    def test_story_rejects_negative_value(self):
        with pytest.raises(ValueError):
            UserStory(id="s1", bv=-1, sp=2)

    def test_program_execution_requires_behavior_entry(self):
        program = ProgramVersion(1, {"a": "ok"})
        assert program.execute("a") == "ok"
        with pytest.raises(UndefinedExecutionError):
            program.execute("missing")


class TestCandidateSet:
    def test_identical_test_sets_give_whole_set(self):
        b1, b2 = two_builds(shared=[tc("a"), tc("b")])
        assert {t.id for t in ordered_candidates(b1, b2)} == {"a", "b"}

    def test_disjoint_test_sets_give_empty(self):
        b1 = build(1, [tc("a")])
        b2 = build(2, [tc("b")])
        assert set(ordered_candidates(b1, b2)) == set()

    def test_partial_overlap(self):
        # Oracle: exhaustive id comparison.
        left = [tc("a"), tc("b"), tc("c")]
        right = [tc("b"), tc("c"), tc("d")]
        expected = {t.id for t in left} & {t.id for t in right}
        b1, b2 = build(1, left), build(2, right)
        assert {t.id for t in ordered_candidates(b1, b2)} == expected == {"b", "c"}

    @pytest.mark.parametrize(
        "field, dupes, message",
        [
            ("tests", {tc("a", exectime=1), TestCase("a", "other", "other", 2, 0)},
             "build 1 has duplicate test id 'a'"),
            ("specs", {story("s1", bv=1), story("s1", bv=2)},
             "build 1 has duplicate story id 's1'"),
        ],
        ids=["test-id", "story-id"],
    )
    def test_duplicate_ids_raise(self, field, dupes, message):
        fields = {"specs": frozenset(), "tests": frozenset(), field: frozenset(dupes)}
        with pytest.raises(MalformedBuildError, match=message):
            Build(index=1, program=ProgramVersion(1, {"a": "ok"}), ready_at=0, **fields)

    def test_returns_next_build_instances(self):
        b1 = build(1, [tc("a", exectime=1)])
        b2 = build(2, [tc("a", exectime=9)])
        (got,) = ordered_candidates(b1, b2)
        assert got.exectime == 9

    @given(
        st.sets(st.integers(0, 12)),
        st.sets(st.integers(0, 12)),
    )
    def test_symmetry_as_id_sets(self, left_ids, right_ids):
        b1 = build(1, [tc(f"t{i}") for i in left_ids])
        b2 = build(2, [tc(f"t{i}") for i in right_ids])
        forward = {t.id for t in ordered_candidates(b1, b2)}
        backward = {t.id for t in ordered_candidates(b2, b1)}
        assert forward == backward

    @given(
        st.sets(st.integers(0, 10)),
        st.sets(st.integers(0, 10)),
        st.sets(st.integers(11, 15)),
    )
    def test_adding_tests_never_shrinks(self, left_ids, right_ids, extra_ids):
        b1 = build(1, [tc(f"t{i}") for i in left_ids])
        b2 = build(2, [tc(f"t{i}") for i in right_ids])
        b2_grown = build(2, [tc(f"t{i}") for i in right_ids | extra_ids])
        before = {t.id for t in ordered_candidates(b1, b2)}
        after = {t.id for t in ordered_candidates(b1, b2_grown)}
        assert before <= after

    @given(
        st.dictionaries(st.integers(0, 12), st.integers(0, 9)),
        st.dictionaries(st.integers(0, 12), st.tuples(st.integers(0, 9), st.integers(0, 9))),
    )
    def test_ordered_candidates_match_brute_force_intersection(self, left, right):
        # Oracle: compare every pair of tests by id, then sort by id.
        b1 = build(1, [tc(f"t{i}", exectime=e) for i, e in left.items()])
        b2 = build(2, [tc(f"t{i}", exectime=e + 10, setup=s) for i, (e, s) in right.items()])
        expected = sorted(
            (t for t in b2.tests if any(u.id == t.id for u in b1.tests)), key=lambda t: t.id
        )
        got = ordered_candidates(b1, b2)
        assert list(got) == expected
        transition = Transition.of(b1, b2, Rtw.of_budget(7))
        assert transition.candidates == tuple(expected)
        assert list(transition.durations.items()) == [
            (t.id, t.exectime + t.setup) for t in expected
        ]


class TestDivergedTests:
    @given(
        st.sets(st.integers(0, 12)),
        st.sets(st.integers(0, 12)),
        st.sets(st.integers(0, 12)),
    )
    def test_matches_per_test_behaviour_comparison(self, left_ids, right_ids, flipped):
        b1 = build(1, [tc(f"t{i}") for i in left_ids])
        b2 = build(
            2,
            [tc(f"t{i}") for i in right_ids],
            behavior_overrides={f"t{i}": "flipped" for i in flipped},
        )
        # Oracle: execute each shared test on both programs.
        shared = sorted({t.id for t in b1.tests} & {t.id for t in b2.tests})
        expected = {v.test_id for v in run_tests(b1, b2, shared) if not v.consistent}
        assert diverged_tests(b1, b2) == expected
        assert expected == {f"t{i}" for i in left_ids & right_ids & flipped}


class TestSharedSets:
    """Builds that share a test set or program object answer as equal copies do."""

    def check_pair(self, b_prev, b_next, graph):
        expected = None
        for p, n in product((b_prev, unshared(b_prev)), (b_next, unshared(b_next))):
            got = (
                ordered_candidates(p, n),
                classify_transition(p, n),
                transition_deltas(p, n),
                diverged_tests(p, n),
                infer_changed_classes(p, n, graph),
            )
            expected = expected or got
            assert got == expected

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_generated_chains(self, seed):
        bundle = generate_chain(ScenarioConfig(seed=seed, n_builds=12, n_tests=10))
        for b_prev, b_next in bundle.chain.pairs():
            self.check_pair(b_prev, b_next, bundle.graph)

    def test_shared_objects_are_seen(self):
        cfg = ScenarioConfig(seed=5, n_builds=4, transition_mix={TransitionKind.PERIODIC_BUILD: 1})
        bundle = generate_chain(cfg)
        for b_prev, b_next in bundle.chain.pairs():
            assert b_prev.tests is b_next.tests and b_prev.program is b_next.program
            copy = unshared(b_prev)
            assert copy.tests is not b_prev.tests and copy.program is not b_prev.program
            self.check_pair(b_prev, b_next, bundle.graph)
            assert classify_transition(b_prev, b_next) is TransitionKind.PERIODIC_BUILD
            assert diverged_tests(b_prev, b_next) == frozenset()

    def test_equal_sizes_compare_ids(self):
        b1 = build(1, [tc("a"), tc("b")])
        assert transition_deltas(b1, build(2, [tc("a"), tc("c")])).tests_changed
        assert not transition_deltas(b1, build(2, [tc("b"), tc("a")])).tests_changed
        assert not transition_deltas(b1, replace(b1, index=2)).tests_changed


REGION_TABLE = [
    ((True, True, True, False), Region.R1),
    ((True, True, False, False), Region.R2),
    ((True, False, True, False), Region.R3),
    ((False, True, True, False), Region.R4),
    ((False, True, False, False), Region.R5),
    ((True, False, False, False), Region.R6),
    ((False, False, True, False), Region.R7),
    ((False, False, False, True), Region.R8),
]


class TestRegions:
    @pytest.mark.parametrize("flags,expected", REGION_TABLE)
    def test_legal_patterns(self, flags, expected):
        assert classify_region(*flags) is expected

    def test_classification_is_a_bijection(self):
        mapped = [classify_region(*flags) for flags, _ in REGION_TABLE]
        assert len(set(mapped)) == len(Region) == 8

    def test_outside_all_with_membership_is_contradictory(self):
        with pytest.raises(InvalidClassificationError):
            classify_region(True, False, False, True)

    def test_nowhere_without_outside_all_is_contradictory(self):
        with pytest.raises(InvalidClassificationError):
            classify_region(False, False, False, False)


class TestTransitions:
    def _pair(self, *, new_program=False, new_story=False, new_test=False):
        shared = [tc("a"), tc("b")]
        stories = (story("s1"),)
        b1 = build(1, shared, stories=stories, program_id=1)
        b2 = build(
            2,
            shared + ([tc("c")] if new_test else []),
            stories=stories + ((story("s2"),) if new_story else ()),
            program_id=2 if new_program else 1,
        )
        return b1, b2

    def test_no_deltas_is_periodic(self):
        assert classify_transition(*self._pair()) is TransitionKind.PERIODIC_BUILD

    def test_all_three_deltas_is_new_feature(self):
        pair = self._pair(new_program=True, new_story=True, new_test=True)
        assert classify_transition(*pair) is TransitionKind.NEW_FEATURE

    def test_program_only_is_defect_fix(self):
        pair = self._pair(new_program=True)
        assert classify_transition(*pair) is TransitionKind.DEFECT_FIX

    def test_program_and_tests_is_tech_debt(self):
        pair = self._pair(new_program=True, new_test=True)
        assert classify_transition(*pair) is TransitionKind.TECH_DEBT

    def test_program_and_specs_is_feature_without_test(self):
        pair = self._pair(new_program=True, new_story=True)
        assert classify_transition(*pair) is TransitionKind.FEATURE_WITHOUT_TEST

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"new_story": True},
            {"new_test": True},
            {"new_story": True, "new_test": True},
        ],
    )
    def test_patterns_without_program_change_are_unclassifiable(self, kwargs):
        pair = self._pair(**kwargs)
        with pytest.raises(UnclassifiableTransitionError) as exc:
            classify_transition(*pair)
        assert exc.value.deltas == transition_deltas(*pair)

    def test_non_consecutive_builds_rejected(self):
        b1 = build(1, [tc("a")])
        b3 = build(3, [tc("a")])
        with pytest.raises(BuildOrderError):
            classify_transition(b1, b3)


class TestChainAndReleases:
    def test_chain_requires_increasing_indices(self):
        with pytest.raises(BuildOrderError):
            BuildChain(builds=(build(2, [tc("a")]), build(1, [tc("a")], ready_at=100)))

    def test_chain_requires_increasing_ready_at(self):
        with pytest.raises(BuildOrderError):
            BuildChain(
                builds=(build(1, [tc("a")], ready_at=50), build(2, [tc("a")], ready_at=50))
            )

    def test_single_iteration_release_designates_final_build(self):
        chain = chain_of(build(1, [tc("a")]), build(2, [tc("a")]))
        release = make_release(chain, [1])
        assert release.build.index == 2
        assert release.source_iterations == (1,)

    def test_gapped_range_rejected(self):
        builds = tuple(build(i, [tc("a")]) for i in range(1, 9))
        iterations = tuple(
            Iteration(index=j, first_build=2 * j - 1, last_build=2 * j) for j in range(1, 5)
        )
        chain = BuildChain(builds=builds, iterations=iterations)
        with pytest.raises(InvalidRangeError):
            make_release(chain, [2, 4])

    def test_release_from_prefix_of_five_iterations(self):
        # Oracle: scan builds by iteration membership for the last build
        # inside the requested range.
        builds = tuple(build(i, [tc("a")]) for i in range(1, 11))
        iterations = tuple(
            Iteration(index=j, first_build=2 * j - 1, last_build=2 * j) for j in range(1, 6)
        )
        chain = BuildChain(builds=builds, iterations=iterations)
        wanted = {1, 2, 3}
        member_builds = [
            b.index
            for b in builds
            for itr in iterations
            if itr.index in wanted and itr.first_build <= b.index <= itr.last_build
        ]
        release = make_release(chain, wanted)
        assert release.build.index == max(member_builds) == 6

    def test_empty_range_rejected(self):
        chain = chain_of(build(1, [tc("a")]))
        with pytest.raises(InvalidRangeError):
            make_release(chain, [])

    def test_unknown_iteration_rejected(self):
        chain = chain_of(build(1, [tc("a")]))
        with pytest.raises(InvalidRangeError):
            make_release(chain, [4])
