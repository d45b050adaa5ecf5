"""Tail-latency breakdown (extension experiment).

The paper's introduction motivates everything with the *tail latency
problem*: most requests are fast, a few are disastrous.  The paper
reports only the max; this experiment breaks the flow-time
distribution into percentiles (p50/p95/p99/max) across replication
strategies and dispatch policies, showing *where* in the tail the
disjoint strategy and the non-clairvoyant policies lose.
"""

from __future__ import annotations

import numpy as np

from ..core.eft import eft_schedule
from ..core.metrics import flow_percentiles
from ..core.nonclairvoyant import C3Like, LeastOutstanding
from ..simulation.popularity import MachinePopularity, shuffled_case
from ..simulation.workload import WorkloadSpec, generate_workload
from .common import TextTable

__all__ = ["run"]

_QS = (50.0, 95.0, 99.0, 100.0)


def _percentiles_for(policy: str, inst, m: int) -> dict[float, float]:
    if policy == "EFT-Min":
        sched = eft_schedule(inst, tiebreak="min")
    elif policy == "LOR":
        sched = LeastOutstanding(m).run(inst)
    elif policy == "C3":
        sched = C3Like(m).run(inst)
    else:
        raise ValueError(f"unknown policy {policy!r}")
    return flow_percentiles(sched, qs=_QS)


def run(
    m: int = 15,
    k: int = 3,
    n: int = 4000,
    load: float = 0.45,
    s: float = 1.0,
    repeats: int = 3,
    size_dist: str = "unit",
    rng_seed: int = 31,
    policies: tuple[str, ...] = ("EFT-Min", "LOR", "C3"),
) -> TextTable:
    """Percentile table at one load point (median over ``repeats``)."""
    pop: MachinePopularity = shuffled_case(m, s, rng_seed)
    table = TextTable(
        title=(
            f"Flow-time percentiles at {100 * load:.0f}% load "
            f"(m={m}, k={k}, {size_dist} sizes, shuffled s={s:g})"
        ),
        headers=["strategy", "policy", "p50", "p95", "p99", "max"],
    )
    for strategy in ("overlapping", "disjoint"):
        for policy in policies:
            acc = {q: [] for q in _QS}
            for rep in range(repeats):
                spec = WorkloadSpec(
                    m=m, n=n, lam=load * m, k=k, strategy=strategy, size_dist=size_dist
                )
                inst = generate_workload(
                    spec, rng=np.random.default_rng(rng_seed + rep), popularity=pop
                )
                pct = _percentiles_for(policy, inst, m)
                for q in _QS:
                    acc[q].append(pct[q])
            table.add_row(
                strategy,
                policy,
                *[round(float(np.median(acc[q])), 2) for q in _QS],
            )
    table.notes.append("p50 barely moves across strategies; the damage concentrates in p99/max")
    return table
