"""Load sweep of the scheduler zoo.

Races every zoo policy over shared seeded workloads at 70/90/100%
cluster load on m=50 and prints flow metrics and preemption counts per
policy.  This is the capacity-planning view of the zoo: what each
policy buys (SRPT's mean flow, Speed-EFT's fast tier) and what it
costs (preemption events, setup charges).  Per-policy dispatch time is
measured by the sim-zoo-faulted workload of ``benchmarks/perf``.
"""

import pytest

from repro.schedulers import get_scheduler
from repro.schedulers.compare import DEFAULT_POLICIES
from repro.simulation import Simulator, WorkloadSpec, generate_workload

M = 50
LOADS = (0.7, 0.9, 1.0)


def _workload(n: int, load: float):
    spec = WorkloadSpec(
        m=M, n=n, lam=load * M, k=3, strategy="overlapping", size_dist="exp"
    )
    return generate_workload(spec, rng=0)


def _run_cell(policy: str, inst):
    sim = Simulator(get_scheduler(policy, M, seed=0), backend="reference")
    sim.add_instance(inst)
    return sim.run()


@pytest.mark.ablation
def test_zoo_load_sweep(scale):
    """The zoo table: every policy at 70/90/100% load on m=50."""
    n = 200_000 if scale == "full" else 40_000
    cells = {}
    for load in LOADS:
        inst = _workload(n, load)
        for policy in DEFAULT_POLICIES:
            cells[policy, load] = _run_cell(policy, inst)
    print()
    print(f"scheduler zoo sweep (m={M}, n={n}, k=3, scale={scale})")
    print(
        f"{'load':<6} {'policy':<11} {'mean_flow':>11} {'max_flow':>11} "
        f"{'preempt':>8} {'util':>7}"
    )
    for (policy, load), res in cells.items():
        print(
            f"{load:<6.2f} {policy:<11} {res.mean_flow:>11.4f} "
            f"{res.max_flow:>11.4f} {res.n_preempted:>8} {res.utilization:>7.4f}"
        )
    for load in LOADS:
        # the zoo's provable ordering, now at benchmark scale
        assert cells["srpt-ps", load].mean_flow <= cells["eft-min", load].mean_flow + 1e-9
        assert cells["srpt-ps", load].n_preempted > 0
        assert cells["eft-min", load].n_preempted == 0
