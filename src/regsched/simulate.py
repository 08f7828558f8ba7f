"""Deterministic CI-chain simulation and scenario reporting.

The generator produces synthetic build chains whose consecutive
transitions follow a configured mix of change kinds, with behavior
divergences ("faults") injected alongside so outcome comparison and
fault-detection metrics have something to find. Everything is driven by
one seeded Mersenne-Twister generator (``random.Random``), so a config
reproduces byte-identical results on any platform. Runs share no
mutable state, so scenarios may also run concurrently in threads;
consecutive configs of one ``run_many`` share one read-only bundle and
run side by side over one pass of its pairs (see :func:`run_many`).

Window presets name the usual cadences (commit, nightly, sprint,
release) as fractions of the initial suite's total duration; the exact
fractions are configuration, nothing more.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field, fields
from itertools import groupby
from operator import attrgetter
from statistics import mean
from typing import Mapping, Sequence

from .budget import Rtw
from .depgraph import build_graph
from .errors import ConfigurationError, require_int
from .histio import HistoryBundle, RunReport, TransitionRow
from .metrics import MetricContext, metric_by_name
from .model import (
    Build,
    BuildChain,
    Iteration,
    ProgramVersion,
    TestCase,
    TransitionKind,
    UserStory,
    classify_transition,
)
from .regall import failed_ids, reg_all
from .strategies import make_strategy
from .trace import Trace, TransitionStep, run_side_by_side

WINDOW_POLICIES = ("fixed", "list", "unbounded", "commit", "nightly", "sprint", "release")

# Cadence presets as fractions of the initial suite's total duration.
WINDOW_PRESETS: Mapping[str, float] = {
    "commit": 0.1,
    "nightly": 0.4,
    "sprint": 0.8,
    "release": 1.5,
}

DEFAULT_MIX: Mapping[TransitionKind, float] = {
    TransitionKind.PERIODIC_BUILD: 0.20,
    TransitionKind.NEW_FEATURE: 0.25,
    TransitionKind.DEFECT_FIX: 0.25,
    TransitionKind.TECH_DEBT: 0.15,
    TransitionKind.FEATURE_WITHOUT_TEST: 0.15,
}


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a scenario run depends on, seed included.

    ``window_value`` is for the ``fixed`` policy only, ``window_values`` for ``list`` only.
    """

    seed: int
    n_builds: int = 10
    n_tests: int = 20
    n_stories: int = 6
    n_classes: int = 8
    transition_mix: Mapping[TransitionKind, float] = field(
        default_factory=lambda: dict(DEFAULT_MIX)
    )
    window_policy: str = "nightly"
    window_value: int | None = None
    window_values: tuple[int | None, ...] | None = None
    fault_rate: float = 0.3
    strategy: str = "retest-all"
    strategy_params: Mapping[str, object] = field(default_factory=dict)
    metric: str = "apfd"

    def __post_init__(self) -> None:
        require_int(self.seed, "seed")
        for name in ("n_builds", "n_tests", "n_stories", "n_classes"):
            if require_int(getattr(self, name), name) < 1:
                raise ConfigurationError("must be a positive integer", field=name)
        if not self.transition_mix:
            raise ConfigurationError("must not be empty", field="transition_mix")
        total = 0.0
        for kind, weight in self.transition_mix.items():
            if not isinstance(kind, TransitionKind):
                raise ConfigurationError(
                    f"unknown transition kind {kind!r}", field="transition_mix"
                )
            # Weights summing to 1 lie in [0, 1]; NaN and infinities do not.
            if not _is_number(weight) or not 0 <= weight <= 1:
                raise ConfigurationError(
                    f"weights must be numbers in [0, 1], got {weight!r}", field="transition_mix"
                )
            total += weight
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(
                f"weights must sum to 1, got {total}", field="transition_mix"
            )
        if self.window_policy not in WINDOW_POLICIES:
            raise ConfigurationError(
                f"unknown policy {self.window_policy!r}; known: {WINDOW_POLICIES}",
                field="window_policy",
            )
        for name, policy in (("window_value", "fixed"), ("window_values", "list")):
            if getattr(self, name) is not None and self.window_policy != policy:
                raise ConfigurationError(
                    f"the {self.window_policy!r} policy does not read it", field=name
                )
        if self.window_policy == "fixed":
            if self.window_value is None or require_int(self.window_value, "window_value") < 0:
                raise ConfigurationError(
                    "fixed policy needs a non-negative window_value", field="window_value"
                )
        if self.window_policy == "list":
            for v in self.window_values or ():
                if v is not None and require_int(v, "window_values") < 0:
                    raise ConfigurationError(
                        "window values must be non-negative or null", field="window_values"
                    )
            if self.window_values is None or len(self.window_values) != self.n_builds - 1:
                raise ConfigurationError(
                    "list policy needs one value per transition", field="window_values"
                )
        if not _is_number(self.fault_rate) or not 0.0 <= self.fault_rate <= 1.0:
            raise ConfigurationError("must lie in [0, 1]", field="fault_rate")

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioConfig":
        if not isinstance(data, Mapping):
            raise ConfigurationError("must be a JSON object", field="config")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigurationError(f"unknown fields {sorted(unknown)}", field="config")
        if "seed" not in data:
            raise ConfigurationError("a seed is required", field="seed")
        kwargs = dict(data)
        if "transition_mix" in kwargs:
            raw = kwargs["transition_mix"]
            if not isinstance(raw, Mapping):
                raise ConfigurationError("must be a mapping", field="transition_mix")
            mix: dict[TransitionKind, float] = {}
            for slug, weight in raw.items():
                try:
                    kind = TransitionKind(slug)
                except ValueError:
                    raise ConfigurationError(
                        f"unknown transition kind {slug!r}", field="transition_mix"
                    ) from None
                # Out-of-range weights stay as given: float() overflows on a huge int.
                mix[kind] = float(weight) if _is_number(weight) and 0 <= weight <= 1 else weight
            kwargs["transition_mix"] = mix
        if kwargs.get("window_values") is not None:
            if not isinstance(kwargs["window_values"], list):
                raise ConfigurationError("must be a list", field="window_values")
            kwargs["window_values"] = tuple(kwargs["window_values"])
        return cls(**kwargs)  # type: ignore[arg-type]


def _sample_kind(rng: random.Random, mix: Mapping[TransitionKind, float]) -> TransitionKind:
    kinds = sorted(mix, key=lambda k: k.value)
    weights = [mix[k] for k in kinds]
    return rng.choices(kinds, weights=weights, k=1)[0]


# The fields generate_chain reads: configs equal on all of them get equal chains.
_CHAIN_FIELDS = attrgetter("seed", "n_builds", "n_tests", "n_stories", "n_classes",
                           "transition_mix", "fault_rate")


def generate_chain(cfg: ScenarioConfig) -> HistoryBundle:
    """Generate a deterministic synthetic chain for the given config.

    Each transition's deltas match its sampled kind exactly (so the
    classifier round-trips), readiness timestamps strictly increase, and
    every injected fault flips a never-before-flipped shared test's
    outcome in the next program, recording the detecting tests. Defect
    fixes always flip at least one outcome; the ``fault_rate`` gates
    additional flips on the other program-changing kinds. A defect fix
    sampled when no flippable test remains degrades to a periodic build.
    """
    rng = random.Random(cfg.seed)

    reserve = 2 * cfg.n_builds
    test_pool = [
        TestCase(
            id=f"t{n:03d}",
            inp=f"in-{n:03d}",
            expected=f"ok-{n:03d}",
            exectime=rng.randint(1, 15),
            setup=rng.randint(0, 5),
        )
        for n in range(1, cfg.n_tests + reserve + 1)
    ]
    story_pool = [
        UserStory(id=f"s{n:03d}", bv=rng.randint(1, 10), sp=rng.randint(1, 8))
        for n in range(1, cfg.n_stories + cfg.n_builds + 1)
    ]
    classes = [f"c{n:02d}" for n in range(1, cfg.n_classes + 1)]

    class_deps: set[tuple[str, str]] = set()
    for j in range(1, len(classes)):
        if rng.random() < 0.5:
            for target in rng.sample(classes[:j], min(rng.randint(1, 2), j)):
                class_deps.add((classes[j], target))
    test_links: dict[str, tuple[str, ...]] = {
        t.id: tuple(rng.sample(classes, rng.randint(1, min(3, len(classes)))))
        for t in test_pool
    }

    active_tests: dict[str, TestCase] = {t.id: t for t in test_pool[: cfg.n_tests]}
    active_stories: dict[str, UserStory] = {s.id: s for s in story_pool[: cfg.n_stories]}
    coverage: dict[str, frozenset[str]] = {
        s: frozenset(rng.sample(sorted(active_tests), rng.randint(1, min(3, len(active_tests)))))
        for s in sorted(active_stories)
    }

    next_test = cfg.n_tests
    next_story = cfg.n_stories
    program_id = 1
    behavior = {t: active_tests[t].expected for t in sorted(active_tests)}
    program = ProgramVersion(program_id, dict(behavior))
    ready = rng.randint(0, 10)
    tests = frozenset(active_tests.values())
    builds = [
        Build(
            index=1,
            program=program,
            specs=frozenset(active_stories.values()),
            tests=tests,
            ready_at=ready,
        )
    ]

    flippable = set(active_tests)
    ever_active = set(active_tests)
    faults: dict[str, frozenset[str]] = {}
    fault_births: dict[str, int] = {}
    fault_n = 0

    def flip(build_index: int, shared: set[str], count: int) -> None:
        nonlocal fault_n
        pool = sorted(flippable & shared)
        if not pool:
            return
        fault_n += 1
        chosen = rng.sample(pool, min(count, len(pool)))
        for test_id in chosen:
            behavior[test_id] = f"div-{fault_n:03d}"
            flippable.discard(test_id)
        fault_id = f"F{fault_n:03d}"
        faults[fault_id] = frozenset(chosen)
        fault_births[fault_id] = build_index

    for i in range(2, cfg.n_builds + 1):
        kind = _sample_kind(rng, cfg.transition_mix)
        shared = set(active_tests)
        if kind is TransitionKind.DEFECT_FIX and not (flippable & shared):
            kind = TransitionKind.PERIODIC_BUILD

        if kind is not TransitionKind.PERIODIC_BUILD:
            program_id += 1

        if kind is TransitionKind.NEW_FEATURE:
            story = story_pool[next_story]
            next_story += 1
            test = test_pool[next_test]
            next_test += 1
            active_stories[story.id] = story
            active_tests[test.id] = test
            ever_active.add(test.id)
            flippable.add(test.id)
            coverage[story.id] = frozenset({test.id})
            behavior[test.id] = test.expected
            if rng.random() < cfg.fault_rate:
                flip(i, shared, 1)
        elif kind is TransitionKind.DEFECT_FIX:
            flip(i, shared, 1 if rng.random() < 0.7 else 2)
        elif kind is TransitionKind.TECH_DEBT:
            # Never remove a story's last living cover; keeps coverage
            # satisfiable along the whole chain.
            sole_covers = set()
            for covering in coverage.values():
                alive = covering & shared
                if len(alive) == 1:
                    sole_covers.add(next(iter(alive)))
            removable = sorted(shared - sole_covers)
            if removable and rng.random() < 0.5:
                victim = rng.choice(removable)
                del active_tests[victim]
                del behavior[victim]
                flippable.discard(victim)
            else:
                test = test_pool[next_test]
                next_test += 1
                active_tests[test.id] = test
                ever_active.add(test.id)
                flippable.add(test.id)
                behavior[test.id] = test.expected
            if rng.random() < cfg.fault_rate:
                flip(i, shared & set(active_tests), 1)
        elif kind is TransitionKind.FEATURE_WITHOUT_TEST:
            story = story_pool[next_story]
            next_story += 1
            active_stories[story.id] = story
            if rng.random() < cfg.fault_rate:
                flip(i, shared, 1)

        if kind is not TransitionKind.PERIODIC_BUILD:
            program = ProgramVersion(program_id, dict(behavior))
        # Only these kinds change the test set; the other builds share it.
        if kind in (TransitionKind.NEW_FEATURE, TransitionKind.TECH_DEBT):
            tests = frozenset(active_tests.values())
        ready += rng.randint(5, 50)
        builds.append(
            Build(
                index=i,
                program=program,
                specs=frozenset(active_stories.values()),
                tests=tests,
                ready_at=ready,
            )
        )

    links = [(t, c) for t in sorted(ever_active) for c in test_links[t]]
    # The graph is edge-defined so it survives serialization; classes no
    # edge ever references are not part of it.
    used_classes = {c for _, c in links} | {c for edge in class_deps for c in edge}
    graph = build_graph(
        classes=used_classes,
        tests=sorted(ever_active),
        class_deps=class_deps,
        test_links=links,
    )
    chain = BuildChain(
        builds=tuple(builds),
        iterations=(Iteration(index=1, first_build=1, last_build=cfg.n_builds),),
    )
    return HistoryBundle(
        chain=chain,
        graph=graph,
        coverage=coverage,
        faults=faults,
        fault_births=fault_births,
    )


def windows_for(cfg: ScenarioConfig, bundle: HistoryBundle) -> tuple[Rtw, ...]:
    """One window per consecutive build pair, per the config's policy."""
    transitions = len(bundle.chain) - 1
    if cfg.window_policy == "unbounded":
        return tuple(Rtw.unbounded() for _ in range(transitions))
    if cfg.window_policy == "fixed":
        return tuple(Rtw.of_budget(cfg.window_value) for _ in range(transitions))
    if cfg.window_policy == "list":
        assert cfg.window_values is not None
        return tuple(Rtw.of_budget(v) for v in cfg.window_values)
    fraction = WINDOW_PRESETS[cfg.window_policy]
    initial_total = sum(t.duration for t in bundle.chain.builds[0].tests)
    budget = int(initial_total * fraction)
    return tuple(Rtw.of_budget(budget) for _ in range(transitions))


def active_faults(bundle: HistoryBundle, build_index: int) -> dict[str, frozenset[str]]:
    """Faults first manifesting at the transition into ``build_index``."""
    return {
        f: bundle.faults[f]
        for f, born_at in sorted(bundle.fault_births.items())
        if born_at == build_index
    }


def scenario_eval_context(bundle: HistoryBundle):
    """Metric-context builder backed by the bundle's fault and coverage data, once per pair."""
    last: list = [None, None, None]

    def build_ctx(b_prev: Build, b_next: Build, executed, verdicts) -> MetricContext:
        if last[0] is not b_prev or last[1] is not b_next:
            same = b_prev.tests is b_next.tests
            candidate_ids = b_next.test_ids() if same else b_prev.test_ids() & b_next.test_ids()
            shared_stories = b_prev.story_ids() & b_next.story_ids()
            coverage = {
                s: bundle.coverage.get(s, frozenset()) & candidate_ids
                for s in sorted(shared_stories)
            }
            last[:] = b_prev, b_next, MetricContext(active_faults(bundle, b_next.index), coverage)
        return last[2]

    return build_ctx


def _row(
    step: TransitionStep, kind: str, births: Mapping[str, frozenset[str]], match: bool | None
) -> TransitionRow:
    """One step's report row: ``kind`` and ``births`` are its pair's, ``match`` its reg_all check."""
    executed = set(step.schedule.ids)
    return TransitionRow(
        build_index=step.transition.b_next.index,
        transition=kind,
        candidate_count=len(step.transition.candidates),
        schedule=step.schedule.ids,
        total_cost=step.schedule.total_cost,
        q_value=step.q_value,
        failed=tuple(sorted(failed_ids(step.verdicts))),
        undetected_faults=tuple(sorted(f for f, tests in births.items() if not tests & executed)),
        regall_match=match,
    )


def _summary(cfg: ScenarioConfig, bundle: HistoryBundle, rows: list[TransitionRow]) -> RunReport:
    defined_q = [r.q_value for r in rows if r.q_value is not None]
    indices = {r.build_index for r in rows}
    born = sum(born_at in indices for born_at in bundle.fault_births.values())
    detected = born - sum(len(r.undetected_faults) for r in rows)
    return RunReport(
        seed=cfg.seed,
        strategy=cfg.strategy,
        metric=cfg.metric,
        rows=tuple(rows),
        mean_q=mean(defined_q) if defined_q else None,
        total_cost=sum(r.total_cost for r in rows),
        fault_recall=detected / len(bundle.faults) if bundle.faults else None,
    )


def _run_group(cfgs: Sequence[ScenarioConfig], bundle: HistoryBundle, reports: list[RunReport]):
    """Yield each pair's first step once every config has its row; then add the reports.

    ``reg_all`` runs once per pair, and only when some config's window
    for that pair is unbounded.
    """
    runs = []
    for cfg in cfgs:
        metric = metric_by_name(cfg.metric)
        strategy = make_strategy(
            cfg.strategy, cfg.strategy_params, graph=bundle.graph, metric=metric, seed=cfg.seed
        )
        runs.append((strategy, windows_for(cfg, bundle), metric))
    rows: list[list[TransitionRow]] = [[] for _ in cfgs]
    for steps in run_side_by_side(bundle.chain, runs, eval_context=scenario_eval_context(bundle)):
        b_prev, b_next = steps[0].transition.b_prev, steps[0].transition.b_next
        kind, births = classify_transition(b_prev, b_next).value, active_faults(bundle, b_next.index)
        expected = None
        for run_rows, step in zip(rows, steps):
            match = None
            if step.transition.window.is_unbounded:
                if expected is None:
                    expected = reg_all(b_prev, b_next, step.transition.window).verdicts
                match = tuple(sorted(step.verdicts)) == expected
            run_rows.append(_row(step, kind, births, match))
        del expected  # not held while the next pair runs
        yield steps[0]
    reports += [_summary(cfg, bundle, run_rows) for cfg, run_rows in zip(cfgs, rows)]


def run_scenario_with_trace(cfg: ScenarioConfig) -> tuple[RunReport, Trace]:
    """Run one scenario and return its report and trace; each record is made as its step passes."""
    bundle = generate_chain(cfg)
    reports: list[RunReport] = []
    trace = Trace.of_run(bundle.chain, _run_group([cfg], bundle, reports))
    return reports[0], trace


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Run one scenario and return its report; no step is kept and no trace record made."""
    return run_many([cfg])[0]


def run_many(cfgs: Sequence[ScenarioConfig]) -> list[RunReport]:
    """Run scenarios and return one report per config, in order.

    Consecutive configs that agree (by ``==``) on every field
    :func:`generate_chain` reads run on one generated bundle, which no run
    changes; only one bundle is alive at a time. Their strategies are all
    built, then run side by side over one pass of the pairs, each pair
    derived once for all. So of several failing configs, the error raised
    is the first in (pair, config) order, one that cannot be built first.
    """
    reports: list[RunReport] = []
    for _, group in groupby(cfgs, _CHAIN_FIELDS):
        same_chain = list(group)
        bundle = generate_chain(same_chain[0])
        deque(_run_group(same_chain, bundle, reports), maxlen=0)  # keeps no step
        del bundle  # freed before the next chain is generated
    return reports
