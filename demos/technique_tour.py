"""Minimize, select, and prioritize on one build transition.

A hand-built pair of consecutive builds with a known fault and explicit
requirement coverage shows the three classic techniques side by side.
"""

from regsched import (
    Build,
    MetricContext,
    ProgramVersion,
    Rtw,
    TestCase,
    UserStory,
    apfd,
    apfd_metric,
    build_graph,
    classify_transition,
    feasible_prefix,
    ordered_candidates,
    reg_all,
    rtm_minimize,
    rtp_prioritize,
    rts_select,
)


def make_transition():
    tests = [
        TestCase("t-api", "in1", "200", exectime=6, setup=1),
        TestCase("t-db", "in2", "row", exectime=9, setup=2),
        TestCase("t-ui", "in3", "page", exectime=4, setup=1),
        TestCase("t-auth", "in4", "token", exectime=3, setup=1),
    ]
    stories = (
        UserStory("s-payments", bv=8, sp=5),
        UserStory("s-accounts", bv=5, sp=3),
    )
    expected = {t.id: t.expected for t in tests}
    before = Build(
        index=1,
        program=ProgramVersion(1, expected),
        specs=frozenset(stories),
        tests=frozenset(tests),
        ready_at=0,
    )
    # The new program breaks t-db's behavior.
    after = Build(
        index=2,
        program=ProgramVersion(2, {**expected, "t-db": "MISSING-ROW"}),
        specs=frozenset(stories),
        tests=frozenset(tests),
        ready_at=50,
    )
    return before, after


def main():
    before, after = make_transition()
    candidates = ordered_candidates(before, after)
    print(f"transition kind: {classify_transition(before, after).value}")
    print(f"candidates: {[t.id for t in candidates]}\n")

    coverage = {
        "s-payments": {"t-api", "t-db"},
        "s-accounts": {"t-auth"},
    }
    minimized = rtm_minimize(candidates, coverage)
    print(f"minimize: {sorted(minimized)} covers both stories")

    graph = build_graph(
        classes=["billing", "storage"],
        tests=[t.id for t in candidates],
        class_deps=[("billing", "storage")],
        test_links=[("t-api", "billing"), ("t-db", "storage"), ("t-ui", "billing")],
    )
    selected = rts_select(
        before, after, "dependency-graph", graph=graph,
        changed_classes={"storage"},
    )
    print(f"select (storage changed): {sorted(selected)}")

    faults = {"bug-42": frozenset({"t-db"})}
    ordered = rtp_prioritize(
        candidates,
        apfd_metric(),
        engine="exact",
        ctx=MetricContext(faults=faults),
    )
    print(f"prioritize: {list(ordered.ids)}")
    print(f"  apfd of that order: {apfd(ordered.ids, faults):.3f}")

    durations = {t.id: t.duration for t in candidates}
    clipped, cost = feasible_prefix(ordered.ids, durations, Rtw.of_budget(15))
    print(f"  clipped to a budget of 15: {list(clipped)} (cost {cost})")

    report = reg_all(before, after, Rtw.unbounded())
    print(f"\nfull-overlap comparison: result={report.result}, "
          f"first inconsistency at {report.first_inconsistent}")


if __name__ == "__main__":
    main()
