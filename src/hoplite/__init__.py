"""Beam-hopping simulation and scheduling: grid, channel, queues, search."""

from .baselines import GaConfig, pattern_ga, pattern_greedy, pattern_periodic, pattern_random
from .cache import BhtpCache, demand_key, discretize, entry_size_bytes
from .channel import LinkBudget, LinkParams, build_link_budget, capacity, sinr
from .geometry import CellGrid, generate_grid, grid_from_points
from .harness import ExperimentConfig, MetricsRecord, run_throughput_sweep
from .mcts import MctsConfig, compute_pattern_mcts
from .orchestrator import (
    HybridPlanner,
    PlanRequest,
    PlanResponse,
    PlannerSettings,
    System,
    plan_bhtp,
    simulate_bhtp,
)
from .scoring import (
    ScoreContext,
    make_score_context,
    omega_max_for,
    score_bruteforce,
    score_sliding_window,
)
from .traffic import QueueState, advance_slot, generate_demand, make_queue_state

__version__ = "0.1.0"

__all__ = [
    "BhtpCache",
    "CellGrid",
    "ExperimentConfig",
    "GaConfig",
    "HybridPlanner",
    "LinkBudget",
    "LinkParams",
    "MctsConfig",
    "MetricsRecord",
    "PlanRequest",
    "PlanResponse",
    "PlannerSettings",
    "QueueState",
    "ScoreContext",
    "System",
    "advance_slot",
    "build_link_budget",
    "capacity",
    "compute_pattern_mcts",
    "demand_key",
    "discretize",
    "entry_size_bytes",
    "generate_demand",
    "generate_grid",
    "grid_from_points",
    "make_queue_state",
    "make_score_context",
    "omega_max_for",
    "pattern_ga",
    "pattern_greedy",
    "pattern_periodic",
    "pattern_random",
    "plan_bhtp",
    "run_throughput_sweep",
    "score_bruteforce",
    "score_sliding_window",
    "simulate_bhtp",
    "sinr",
]
