"""Execution simulator (the paper's board-measurement substitute)."""

from .backend import (
    active_solver,
    compiled_provider,
    solve_batch_compiled,
    solve_steady_state_batch,
)
from .cache import EvaluationCache, platform_fingerprint
from .contention import ContentionSolution
from .demands import StageDemand, compute_stage_demands
from .des import DesConfig, DesResult, simulate_des
from .dynamic import (
    MappingDecision,
    Planner,
    ScenarioEvent,
    Segment,
    Timeline,
    arrival,
    departure,
    priority_change,
    restrict_mapping,
    run_dynamic_scenario,
)
from .engine import SimResult, simulate, simulate_batch

__all__ = [
    "active_solver",
    "compiled_provider",
    "solve_batch_compiled",
    "ContentionSolution",
    "solve_steady_state_batch",
    "StageDemand",
    "compute_stage_demands",
    "SimResult",
    "simulate",
    "simulate_batch",
    "EvaluationCache",
    "platform_fingerprint",
    "restrict_mapping",
    "DesConfig",
    "DesResult",
    "simulate_des",
    "MappingDecision",
    "Planner",
    "ScenarioEvent",
    "Segment",
    "Timeline",
    "arrival",
    "departure",
    "priority_change",
    "run_dynamic_scenario",
]
