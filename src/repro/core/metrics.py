"""Aggregate metrics over schedules.

The paper's objective is the maximum flow time
:math:`F_{max} = \\max_i (C_i - r_i)`; practitioners also look at tail
percentiles (the "tail latency" problem motivating the paper), mean
flow, stretch and machine utilisation.  This module computes them in
one pass and renders compact summaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedule import Schedule

__all__ = ["ScheduleStats", "summarize", "flow_percentiles", "waiting_profile"]


@dataclass(frozen=True, slots=True)
class ScheduleStats:
    """One-pass summary statistics of a schedule."""

    n: int
    m: int
    max_flow: float
    mean_flow: float
    p50_flow: float
    p95_flow: float
    p99_flow: float
    max_stretch: float
    makespan: float
    total_work: float
    avg_utilization: float
    max_machine_load: float
    min_machine_load: float

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view (for tables / JSON)."""
        return {
            "n": self.n,
            "m": self.m,
            "max_flow": self.max_flow,
            "mean_flow": self.mean_flow,
            "p50_flow": self.p50_flow,
            "p95_flow": self.p95_flow,
            "p99_flow": self.p99_flow,
            "max_stretch": self.max_stretch,
            "makespan": self.makespan,
            "total_work": self.total_work,
            "avg_utilization": self.avg_utilization,
            "max_machine_load": self.max_machine_load,
            "min_machine_load": self.min_machine_load,
        }


def summarize(schedule: Schedule) -> ScheduleStats:
    """Compute :class:`ScheduleStats` for ``schedule``."""
    flows = schedule.flows()
    loads = schedule.machine_loads()
    makespan = schedule.makespan
    total_work = float(loads.sum())
    util = total_work / (schedule.m * makespan) if makespan > 0 else 0.0
    if flows.size == 0:
        flows = np.zeros(1)
    return ScheduleStats(
        n=len(schedule),
        m=schedule.m,
        max_flow=float(flows.max()),
        mean_flow=float(flows.mean()),
        p50_flow=float(np.percentile(flows, 50)),
        p95_flow=float(np.percentile(flows, 95)),
        p99_flow=float(np.percentile(flows, 99)),
        max_stretch=schedule.max_stretch,
        makespan=float(makespan),
        total_work=total_work,
        avg_utilization=float(util),
        max_machine_load=float(loads.max()) if loads.size else 0.0,
        min_machine_load=float(loads.min()) if loads.size else 0.0,
    )


def flow_percentiles(schedule: Schedule, qs: tuple[float, ...] = (50, 90, 95, 99, 100)) -> dict[float, float]:
    """Flow-time percentiles (``100`` is the max flow itself)."""
    flows = schedule.flows()
    if flows.size == 0:
        return {q: 0.0 for q in qs}
    return {q: float(np.percentile(flows, q)) for q in qs}


def waiting_profile(schedule: Schedule, t: float) -> np.ndarray:
    """Remaining allocated work per machine at time ``t``.

    For machine :math:`M_j` this is
    :math:`\\max(0, C_{j}(t) - t)` where :math:`C_j(t)` is the
    completion time of work assigned to :math:`M_j` among tasks
    released at or before ``t`` — the *schedule profile* :math:`w_t`
    of Theorem 8 (computed from a finished schedule rather than
    online state).
    """
    profile = np.zeros(schedule.m)
    for a in schedule:
        if a.task.release <= t:
            j = a.machine - 1
            profile[j] = max(profile[j], a.completion - t)
    return np.maximum(profile, 0.0)
