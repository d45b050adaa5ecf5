"""Ablation: tie-break policy (Section 7.4's EFT-Min vs EFT-Max,
extended with Rand and LeastLoaded).

DESIGN.md calls out the tie-break policy as the one EFT design choice
the paper studies; this bench quantifies its effect in two regimes:

* the Worst-case popularity workload (paper: EFT-Max slightly better
  under overlapping replication because it avoids the popular side);
* the Theorem 8 adversary (Min collapses to m-k+1, Max escapes).
"""

import numpy as np
import pytest

from repro.adversaries import EFTIntervalAdversary
from repro.core import EFT, eft_schedule
from repro.experiments.common import TextTable
from repro.simulation import WorkloadSpec, generate_workload, worst_case

POLICIES = ("min", "max", "rand", "least_loaded")


@pytest.mark.ablation
def test_tiebreak_on_worst_case_workload():
    m, k, n = 15, 3, 4000
    pop = worst_case(m, 1.0)

    table = TextTable(
        title="Ablation: tie-break policy, Worst-case s=1, overlapping k=3, load 45%",
        headers=["policy", "median Fmax", "mean flow"],
    )
    for policy in POLICIES:
        fmaxes, means = [], []
        for rep in range(5):
            spec = WorkloadSpec(m=m, n=n, lam=0.45 * m, k=k, strategy="overlapping")
            inst = generate_workload(spec, rng=rep, popularity=pop)
            sched = eft_schedule(inst, tiebreak=policy, rng=rep)
            fmaxes.append(sched.max_flow)
            means.append(sched.mean_flow)
        table.add_row(policy, float(np.median(fmaxes)), float(np.mean(means)))
    print()
    print(table.to_text())
    values = {row[0]: row[1] for row in table.rows}
    # Paper: EFT-Max <= EFT-Min under worst-case bias (it avoids the
    # hot low-index machines when breaking ties).
    assert values["max"] <= values["min"] + 0.5


@pytest.mark.ablation
def test_tiebreak_on_adversary():
    m, k = 8, 3

    table = TextTable(
        title=f"Ablation: tie-break policy on the Theorem 8 adversary (m={m}, k={k})",
        headers=["policy", "Fmax", "bound m-k+1"],
    )
    for policy in POLICIES:
        result = EFTIntervalAdversary(m, k, steps=m**3).run(
            lambda mm: EFT(mm, tiebreak=policy, rng=0)
        )
        table.add_row(policy, result.fmax, m - k + 1)
    print()
    print(table.to_text())
    values = {row[0]: row[1] for row in table.rows}
    assert values["min"] == m - k + 1  # Theorem 8
    assert values["max"] == 1.0  # Max escapes the plain instance
