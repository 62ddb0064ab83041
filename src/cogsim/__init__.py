"""Deterministic three-layer cognitive agent simulation engine."""

from .affect import (
    ActionTendency,
    AffectiveProcess,
    Appraisal,
    prepare_action,
    run_affective_cycle,
)
from .agent import (
    ReactiveRule,
    SimulationState,
    deliberative_step,
    perceive,
    reactive_step,
    tick,
)
from .arguments import Argument, ArgumentTemplate, CaseReport, active_set, aggregate, build_case
from .metacog import (
    Commitment,
    CountermeasureSpec,
    Inconsistency,
    ReasoningTrace,
    TraceEvent,
    check_consistency,
    control,
    monitor,
)
from .planner import plan_tidy_task
from .runner import RunConfig, RunResult, run_simulation
from .scenario import (
    AgentConfig,
    ScenarioSpec,
    ValidationReport,
    instantiate,
    load_bundled,
    parse_scenario,
    serialize_scenario,
    validate_scenario,
)
from .world import (
    GoalSpec,
    GoalStatus,
    ObjectState,
    WorldEvent,
    WorldState,
    apply_action,
    evaluate_goal,
    step_events,
)

__version__ = "0.1.0"
