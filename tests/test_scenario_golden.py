"""Pinned scenario outputs, and report rows that agree with a replay.

The digests are SHA-256 of the canonical report and trace bytes for a
fixed grid of configs. They pin behaviour: a refactor of the scenario
path must leave every byte as it is, and an intended output change has to
update this table on purpose.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regsched import (
    ScenarioConfig,
    generate_chain,
    replay_trace,
    run_scenario,
    run_scenario_with_trace,
)
from regsched.histio import dumps_canonical, report_to_dict, trace_to_dict

STRATEGIES = {
    "retest-all": {},
    "random-k": {"k": 10},
    "retecs": {},
    "depgraph": {},
}
WINDOWS = {"nightly": None, "unbounded": None, "fixed": 0}

# (report digest, trace digest) per strategy/window policy; seed 7, 40x15.
GOLDEN = {
    "retest-all/nightly": (
        "b22b56b9c282746bb38ab9dae3045805c8157ffcadde36a1d58e80ed32b0cc43",
        "3f4ba225f5768f8615b1add9020243cd091c53874c3c0f2448d60e0e48369a81",
    ),
    "retest-all/unbounded": (
        "b717e7aa5d7f35fd2acc4ecae56d7d9ea09f66ea4660838d8c1608cafc8163b2",
        "cb3a8a514fa97e720a7fe168681ec587d69d0e1e93d6f8d1ab85304b09653546",
    ),
    "retest-all/fixed": (
        "1a91ca77ed34ea9d54eafb730e3ecfa2476b7b8fd0fbd866f59203936ed9a2aa",
        "034a12dcd8dc554a3f7664becbd68651a4a1eec25fe84040eeb87652bec11b0b",
    ),
    "random-k/nightly": (
        "a1aaadd78c55035bc7067254730d93d0c579a33f48adbec52a3872d504150462",
        "2ad42ab7f20a9940fe3ace0d034e5a6f5d987cf8b06ec56563e316f56e918b18",
    ),
    "random-k/unbounded": (
        "acaa9bf95ecf67c2e9924de78c3303849bc17716700636ba28cd683c55371049",
        "8a634fdfe28f278c79bd1379b3a8addd8bb6d64aa07cd309f2ec6993cd7ede36",
    ),
    "random-k/fixed": (
        "dba7ee4a91f5cbd2ac48195a610fe8a5124201b36e1479a50fae950158f0aa09",
        "034a12dcd8dc554a3f7664becbd68651a4a1eec25fe84040eeb87652bec11b0b",
    ),
    "retecs/nightly": (
        "f964f7f5f82e4bc9e9c412f648c57f7ce46bcfec18b798a328000542aa0adffa",
        "ea56b81c963e4f7f347f688b59b6e095ebf9e9788964874e37efb65bfdf9afca",
    ),
    "retecs/unbounded": (
        "b53ede4f6e9af7ed3890025450202a7e517e8f24888b071ffaca5065366ba58d",
        "dddbcea6588257cc6c15500020c6b755f69b0ecbffb5d363e6a6001392f6482f",
    ),
    "retecs/fixed": (
        "334ba22bc338a5721ba30eb25f6bb963560deab902ffd88faf02c1240526199f",
        "034a12dcd8dc554a3f7664becbd68651a4a1eec25fe84040eeb87652bec11b0b",
    ),
    "depgraph/nightly": (
        "5d7829e8143d7cde731def5a77458cc63daa1a0181afb893a82d989f023a7ac6",
        "fb11cc087f8af22309d365179f7ae440e0f30186cc102ffb6a1e233d7a3729ca",
    ),
    "depgraph/unbounded": (
        "9577668a8c2ac54f109f7d3793daafa8576574d556dfc6b7c3046776572b631b",
        "4a560bd50e53278eee05cd0992bf4379eec87936459061fa5265b2ee873ca88e",
    ),
    "depgraph/fixed": (
        "3f9fbaa0d2c5ddcba0ea9c8b894d8651cdd789800f40dbee47d563ab9199cb4f",
        "034a12dcd8dc554a3f7664becbd68651a4a1eec25fe84040eeb87652bec11b0b",
    ),
}


def config(seed, strategy, policy, **sizes):
    return ScenarioConfig(
        seed=seed,
        strategy=strategy,
        strategy_params=STRATEGIES[strategy],
        window_policy=policy,
        window_value=WINDOWS[policy],
        **sizes,
    )


def sha256(data: dict) -> str:
    return hashlib.sha256(dumps_canonical(data).encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_report_and_trace_bytes_are_pinned(key):
    strategy, policy = key.split("/")
    report, trace = run_scenario_with_trace(
        config(7, strategy, policy, n_tests=40, n_builds=15)
    )
    assert (sha256(report_to_dict(report)), sha256(trace_to_dict(trace))) == GOLDEN[key]


@given(
    seed=st.integers(0, 10_000),
    strategy=st.sampled_from(sorted(STRATEGIES)),
    policy=st.sampled_from(sorted(WINDOWS)),
)
@settings(max_examples=40, deadline=None)
def test_report_rows_agree_with_replaying_the_trace(seed, strategy, policy):
    cfg = config(seed, strategy, policy, n_tests=15, n_builds=6)
    report, trace = run_scenario_with_trace(cfg)
    assert run_scenario(cfg) == report
    steps = replay_trace(trace, generate_chain(cfg).chain)
    assert len(report.rows) == len(steps) - 1
    for row, step in zip(report.rows, steps[1:]):
        assert row.build_index == step.index
        assert row.schedule == step.schedule.ids
        assert row.total_cost == step.schedule.total_cost
        assert row.failed == tuple(sorted(v.test_id for v in step.verdicts if not v.consistent))
