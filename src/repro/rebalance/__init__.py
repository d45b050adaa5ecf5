"""Online re-replication: the max-load LP as a live autoscaling signal.

Closes the loop from workload dynamics to placement changes:
:class:`~repro.rebalance.estimator.PopularityEstimator` watches the
arrival stream, :class:`~repro.rebalance.controller.RebalanceController`
re-solves Equation (15) against the live
:class:`~repro.rebalance.placement.IntervalPlacement` on a cadence and
proposes interval-structured placement changes, the serve tier enacts
them (``ShardRouter.apply_placement``)
and every decision lands in a versioned, replayable
:mod:`~repro.rebalance.events` trace.
"""

from .controller import RebalanceConfig, RebalanceController, RebalanceDecision
from .estimator import PopularityEstimator
from .events import (
    REBALANCE_TRACE_FORMAT,
    REBALANCE_TRACE_VERSION,
    RebalanceTrace,
)
from .events import dump as dump_rebalance_trace
from .events import dumps as dumps_rebalance_trace
from .events import load as load_rebalance_trace
from .events import loads as loads_rebalance_trace
from .harness import RebalanceResult, replay_rebalance, run_rebalance
from .placement import IntervalPlacement, ring_start

__all__ = [
    "IntervalPlacement",
    "PopularityEstimator",
    "REBALANCE_TRACE_FORMAT",
    "REBALANCE_TRACE_VERSION",
    "RebalanceConfig",
    "RebalanceController",
    "RebalanceDecision",
    "RebalanceResult",
    "RebalanceTrace",
    "dump_rebalance_trace",
    "dumps_rebalance_trace",
    "load_rebalance_trace",
    "loads_rebalance_trace",
    "replay_rebalance",
    "ring_start",
    "run_rebalance",
]
