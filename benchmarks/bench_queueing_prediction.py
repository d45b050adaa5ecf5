"""Analysis bench: queueing theory vs simulation.

Predicts the disjoint-strategy Figure 11 curve with Erlang-C machinery
and compares against the measured simulation, checking that (a) the
divergence point matches the LP/stability capacity line and (b) the
finite predictions are within the M/M-vs-M/D model error band.
"""

import numpy as np
import pytest

from repro.analysis import predict_disjoint_curve, stability_limit
from repro.core import eft_schedule
from repro.experiments.common import TextTable
from repro.maxload import max_load_lp
from repro.simulation import WorkloadSpec, generate_workload, worst_case


@pytest.mark.ablation
def test_prediction_vs_simulation(scale):
    m, k = 15, 3
    n = 8000 if scale == "full" else 3000
    pop = worst_case(m, 1.0)
    limit_pct = 100 * stability_limit(pop, k) / m  # = LP red line
    loads = [10, 20, 30]

    table = TextTable(
        title=f"Queueing prediction vs simulation (disjoint, worst case s=1, m={m}, k={k})",
        headers=["load %", "predicted Fmax", "simulated Fmax (median of 3)"],
    )
    pred = predict_disjoint_curve(pop, k, loads, n=n)
    for load in loads:
        sims = []
        for rep in range(3):
            spec = WorkloadSpec(m=m, n=n, lam=load / 100 * m, k=k, strategy="disjoint")
            inst = generate_workload(spec, rng=rep, popularity=pop)
            sims.append(eft_schedule(inst, tiebreak="min").max_flow)
        table.add_row(load, round(pred[float(load)], 2), float(np.median(sims)))
    print()
    print(table.to_text())
    print(f"stability limit {limit_pct:.1f}% == LP max load "
          f"{max_load_lp(pop, 'disjoint', k).load_percent:.1f}%")
    assert limit_pct == pytest.approx(max_load_lp(pop, "disjoint", k).load_percent)
    for load, pred_v, sim_v in table.rows:
        assert pred_v / 4 <= sim_v <= pred_v * 4  # model error band
