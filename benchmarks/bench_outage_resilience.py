"""Failure-injection ablation: replication strategy vs machine outage.

Injects a machine outage (drain-then-reboot maintenance window) into a
moderate-load workload and measures the tail-latency damage under each
replication strategy.  Overlapping replication spreads the failed
machine's load over neighbours in *different* groups; the disjoint
strategy confines it to the victim's own group, which saturates —
another practical argument for the ring scheme beyond Figure 10.
"""

import numpy as np
import pytest

from repro.core import eft_schedule
from repro.experiments.common import TextTable
from repro.simulation import WorkloadSpec, generate_workload, inject_outage, uniform_case


@pytest.mark.ablation
def test_outage_resilience(scale):
    m, k = 15, 3
    n = 8000 if scale == "full" else 3000
    pop = uniform_case(m)
    outage_len = 60.0

    table = TextTable(
        title=f"Outage resilience at 60% load (m={m}, k={k}, {outage_len:g}-unit outage)",
        headers=["strategy", "baseline Fmax", "Fmax with outage", "degradation"],
    )
    for strategy in ("overlapping", "disjoint"):
        base_vals, out_vals = [], []
        for rep in range(3):
            spec = WorkloadSpec(m=m, n=n, lam=0.6 * m, k=k, strategy=strategy)
            inst = generate_workload(spec, rng=rep, popularity=pop)
            base_vals.append(eft_schedule(inst, tiebreak="min").max_flow)
            hurt = inject_outage(inst, machine=5, start=10.0, duration=outage_len)
            outage_tid = max(t.tid for t in hurt)
            sched = eft_schedule(hurt, tiebreak="min")
            # tail latency of the *requests* — the maintenance task
            # itself does not count
            out_vals.append(
                max(a.flow for a in sched if a.task.tid != outage_tid)
            )
        base = float(np.median(base_vals))
        out = float(np.median(out_vals))
        table.add_row(strategy, base, out, round(out / base, 2))
    print()
    print(table.to_text())
    by_name = {row[0]: row for row in table.rows}
    # outages always hurt...
    for row in table.rows:
        assert row[2] >= row[1] - 1e-9
    # ...and the ring absorbs them better than the partition
    assert by_name["overlapping"][2] <= by_name["disjoint"][2] + 1e-9
