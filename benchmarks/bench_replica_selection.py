"""Ablation: clairvoyant EFT vs observable replica-selection policies.

The paper's EFT needs exact service times (clairvoyance).  Real stores
use observable signals — least-outstanding-requests, or C3-style
queue/latency scoring (refs [29, 30] of the paper).  This bench
quantifies the clairvoyance gap across service-time distributions,
including the heavy-tailed one where tail latency actually bites.
"""

import numpy as np
import pytest

from repro.core import RandomAssign, eft_schedule
from repro.core.nonclairvoyant import C3Like, LeastOutstanding
from repro.experiments.common import TextTable
from repro.simulation import WorkloadSpec, generate_workload, shuffled_case


@pytest.mark.ablation
def test_replica_selection_policies(scale):
    m, k = 15, 3
    n = 6000 if scale == "full" else 2500
    pop = shuffled_case(m, 1.0, rng=3)

    table = TextTable(
        title=f"Replica selection under 40% load (m={m}, k={k}, shuffled s=1)",
        headers=["size dist", "EFT-Min (clairvoyant)", "LOR", "C3-like", "Random"],
    )
    for dist in ("unit", "exp", "pareto"):
        rows = {"eft": [], "lor": [], "c3": [], "rand": []}
        for rep in range(3):
            spec = WorkloadSpec(
                m=m, n=n, lam=0.4 * m, k=k, strategy="overlapping", size_dist=dist
            )
            inst = generate_workload(spec, rng=rep, popularity=pop)
            rows["eft"].append(eft_schedule(inst, tiebreak="min").max_flow)
            rows["lor"].append(LeastOutstanding(m).run(inst).max_flow)
            rows["c3"].append(C3Like(m).run(inst).max_flow)
            rows["rand"].append(RandomAssign(m, rng=rep).run(inst).max_flow)
        table.add_row(
            dist,
            float(np.median(rows["eft"])),
            float(np.median(rows["lor"])),
            float(np.median(rows["c3"])),
            float(np.median(rows["rand"])),
        )
    print()
    print(table.to_text())
    for row in table.rows:
        dist, eft, lor, c3, rand = row
        # the clairvoyant baseline should never be (much) worse than the
        # observable policies, and load-aware policies beat random
        assert eft <= min(lor, c3) * 1.5 + 1
        assert min(lor, c3) <= rand * 1.5 + 1
