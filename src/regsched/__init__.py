"""regsched: budget-aware regression-test scheduling over CI build chains.

Model a stream of builds (program version + user stories + tests), price
the window between consecutive builds, and decide what to run in it:
everything, a minimized cover, an impact-selected subset, or a
metric-maximizing order. Any strategy's run records as one tuple per
build and replays exactly. A seeded simulator generates whole chains for
experiments.
"""

from .budget import Rtw, Schedule, ScopeResult, feasible_prefix, scope, scope_bruteforce
from .depgraph import (
    ChangeSet,
    DepGraph,
    ExecutionHistory,
    ExecutionRecord,
    affected_tests,
    build_graph,
    failure_score,
    order_by_history,
    update_graph,
)
from .errors import RegschedError
from .histio import (
    derive_execution_history,
    dump_history,
    dump_trace,
    ingest_history,
    load_report,
    load_trace,
    parse_history,
    report_from_dict,
    report_to_csv,
    report_to_dict,
    serialize_history,
    trace_from_dict,
    trace_to_dict,
)
from .metrics import (
    MetricContext,
    QualityMetric,
    apfd,
    apfd_metric,
    coverage_metric,
    fault_count_metric,
    first_detection_positions,
    metric_by_name,
)
from .model import (
    Build,
    BuildChain,
    Iteration,
    ProgramVersion,
    Region,
    Release,
    TestCase,
    TransitionDeltas,
    TransitionKind,
    UserStory,
    classify_region,
    classify_transition,
    diverged_tests,
    make_release,
    ordered_candidates,
    transition_deltas,
)
from .regall import RegAllReport, Verdict, failed_ids, reg_all, run_tests
from .retecs import (
    AgentState,
    BufferEntry,
    agent_update,
    atcs,
    plan_schedule,
    ttcp,
)
from .simulate import (
    HistoryBundle,
    RunReport,
    ScenarioConfig,
    TransitionRow,
    active_faults,
    generate_chain,
    run_many,
    run_scenario,
    run_scenario_with_trace,
    windows_for,
)
from .strategies import (
    DepGraphStrategy,
    RandomKStrategy,
    RetecsStrategy,
    RetestAllStrategy,
    infer_changed_classes,
    make_strategy,
)
from .techniques import (
    RequirementCoverage,
    rtm_minimize,
    rtp_prioritize,
    rts_select,
)
from .trace import (
    CompletenessReport,
    ReplayStep,
    Strategy,
    Trace,
    TraceTuple,
    Transition,
    TransitionStep,
    check_completeness,
    record_trace,
    replay_trace,
    run_side_by_side,
    run_transitions,
)

__version__ = "0.1.0"
