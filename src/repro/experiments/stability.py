"""Stability analysis: the LP max-load line is a real phase boundary.

Figure 11's "red lines" are theoretical capacities from the LP (15).
This extension experiment demonstrates they are *dynamic* phase
boundaries: running the same workload at increasing horizon ``n``,
the max flow time

* **plateaus** when the average load sits below the strategy's LP
  max-load (the queueing system is stable; the max over n samples of
  a stationary distribution grows only logarithmically), and
* **grows linearly** when the load exceeds it (work accumulates at a
  constant rate — the cluster is beyond capacity no matter how clever
  the scheduler).
"""

from __future__ import annotations

import numpy as np

from ..core.eft import eft_schedule
from ..maxload.lp import max_load_lp
from ..simulation.popularity import MachinePopularity, worst_case
from ..simulation.workload import WorkloadSpec, generate_workload
from .common import TextTable

__all__ = ["run", "growth_rate"]


def growth_rate(ns, fmaxes) -> float:
    """Least-squares slope of Fmax against n, normalised by the mean
    inter-release time — ~0 for a stable system, ~(excess load) for an
    unstable one."""
    ns = np.asarray(ns, dtype=float)
    fmaxes = np.asarray(fmaxes, dtype=float)
    slope = np.polyfit(ns, fmaxes, 1)[0]
    return float(slope)


def run(
    m: int = 15,
    k: int = 3,
    s: float = 1.0,
    strategy: str = "disjoint",
    ns: tuple[int, ...] = (1000, 2000, 4000, 8000),
    repeats: int = 3,
    rng_seed: int = 17,
) -> TextTable:
    """Measure Fmax vs horizon at one load below and one above the
    strategy's LP capacity (Worst-case popularity)."""
    pop: MachinePopularity = worst_case(m, s)
    capacity = max_load_lp(pop, strategy, k).load_percent
    below = 0.8 * capacity / 100.0
    above = 1.3 * capacity / 100.0
    table = TextTable(
        title=(
            f"Stability across the LP capacity line "
            f"({strategy}, worst case s={s:g}, capacity {capacity:.1f}%)"
        ),
        headers=["regime", "load %"] + [f"n={n}" for n in ns] + ["slope/n"],
    )
    for label, load in (("stable (0.8x cap)", below), ("unstable (1.3x cap)", above)):
        medians = []
        for n in ns:
            vals = []
            for rep in range(repeats):
                spec = WorkloadSpec(m=m, n=n, lam=load * m, k=k, strategy=strategy)
                inst = generate_workload(
                    spec, rng=np.random.default_rng(rng_seed + rep), popularity=pop
                )
                vals.append(eft_schedule(inst, tiebreak="min").max_flow)
            medians.append(float(np.median(vals)))
        table.add_row(
            label,
            round(100 * load, 1),
            *[round(v, 2) for v in medians],
            f"{growth_rate(ns, medians):.5f}",
        )
    table.notes.append(
        "stable regime: Fmax plateaus with n; unstable: linear growth — the LP "
        "line is a dynamic phase boundary"
    )
    return table
