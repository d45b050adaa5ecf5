"""Failure-injection ablation: replication strategy vs machine outage.

Takes one machine down for a window of a moderate-load workload (a
:class:`~repro.faults.FaultSchedule` outage on the Simulator: work in
flight restarts elsewhere, queued work is re-dispatched, new work
avoids the dead machine) and measures the tail-latency damage under
each replication strategy.  Overlapping replication spreads the failed
machine's load over neighbours in *different* groups; the disjoint
strategy confines it to the victim's own group, which saturates —
another practical argument for the ring scheme beyond Figure 10.
"""

import numpy as np
import pytest

from repro.core import EFT, eft_schedule
from repro.experiments.common import TextTable
from repro.faults import FaultSchedule
from repro.simulation import Simulator, WorkloadSpec, generate_workload, uniform_case


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
            sim = Simulator(
                EFT(m, tiebreak="min"),
                faults=FaultSchedule.build([(5, 10.0, 10.0 + outage_len)]),
            )
            sim.add_instance(inst)
            hurt = sim.run()
            assert hurt.n_completed == n
            out_vals.append(hurt.max_flow)
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
