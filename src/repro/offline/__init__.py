"""Offline optima and lower bounds for measuring competitive ratios."""

from .bounds import lb_pmax, lb_restricted_volume, lb_volume, opt_lower_bound
from .exact import ExactSolver, optimal_fmax, optimal_schedule
from .fptas import fptas_fmax
from .matching import hopcroft_karp
from .preemptive import optimal_preemptive_fmax, preemptive_feasible
from .preemptive_schedule import (
    Piece,
    PreemptiveEngine,
    PreemptiveResult,
    fifo_priority,
    preemptive_schedule_pieces,
    srpt_priority,
    validate_pieces,
)
from .unit_mincost import optimal_unit_sum_flow, optimal_unit_weighted_flow
from .unit_opt import optimal_unit_fmax, optimal_unit_schedule, unit_feasible_with_flow

__all__ = [
    "ExactSolver",
    "optimal_preemptive_fmax",
    "preemptive_feasible",
    "Piece",
    "PreemptiveEngine",
    "PreemptiveResult",
    "fifo_priority",
    "preemptive_schedule_pieces",
    "srpt_priority",
    "validate_pieces",
    "fptas_fmax",
    "hopcroft_karp",
    "lb_pmax",
    "lb_restricted_volume",
    "lb_volume",
    "opt_lower_bound",
    "optimal_fmax",
    "optimal_schedule",
    "optimal_unit_fmax",
    "optimal_unit_schedule",
    "optimal_unit_sum_flow",
    "optimal_unit_weighted_flow",
    "unit_feasible_with_flow",
]
