"""Ablation: the price of the paper's non-preemptive model.

Compares exact preemptive vs non-preemptive optima on random small
instances, and preemptive-FIFO vs SRPT online, quantifying (a) how
much atomic requests cost in the worst case and (b) why the max-flow
objective prefers FIFO-like policies even when preemption is free.
"""

import numpy as np
import pytest

from repro.core import Instance
from repro.experiments.common import TextTable
from repro.offline import optimal_fmax, optimal_preemptive_fmax
from repro.simulation import PreemptiveEngine, fifo_priority, srpt_priority


@pytest.mark.ablation
def test_preemption_gap():
    rng = np.random.default_rng(8)
    table = TextTable(
        title="Price of non-preemption (m=2, n=7, exact optima, 8 instances)",
        headers=["instance", "preemptive OPT", "non-preemptive OPT", "gap"],
    )
    gaps = []
    for i in range(8):
        releases = np.sort(rng.uniform(0, 4, size=7))
        procs = rng.uniform(0.3, 3.0, size=7)
        inst = Instance.build(2, releases=releases, procs=procs)
        pre = optimal_preemptive_fmax(inst)
        non = optimal_fmax(inst)
        gaps.append(non / pre)
        table.add_row(i, round(pre, 3), round(non, 3), round(non / pre, 3))
    table.notes.append(f"median gap {np.median(gaps):.3f}")
    print()
    print(table.to_text())
    for row in table.rows:
        assert row[2] >= row[1] - 1e-6  # preemption never hurts


@pytest.mark.ablation
def test_srpt_vs_fifo_tradeoff():
    rng = np.random.default_rng(3)
    table = TextTable(
        title="Online preemptive policies (m=3, bursty exp sizes, 5 runs)",
        headers=["policy", "median Fmax", "median mean flow", "preemptions"],
    )
    stats = {"FIFO": ([], [], []), "SRPT": ([], [], [])}
    for seed in range(5):
        r = np.random.default_rng(seed)
        releases = np.sort(r.uniform(0, 30, size=90))
        procs = r.exponential(1.0, size=90) + 0.05
        inst = Instance.build(3, releases=releases, procs=procs)
        for name, prio in (("FIFO", fifo_priority), ("SRPT", srpt_priority)):
            res = PreemptiveEngine(prio).run(inst)
            stats[name][0].append(res.max_flow)
            stats[name][1].append(res.mean_flow)
            stats[name][2].append(res.preemptions)
    for name, (fm, mf, pr) in stats.items():
        table.add_row(
            name, float(np.median(fm)), float(np.median(mf)), int(np.median(pr))
        )
    print()
    print(table.to_text())
    by = {row[0]: row for row in table.rows}
    assert by["SRPT"][2] <= by["FIFO"][2] + 1e-9  # SRPT wins the mean
    assert by["FIFO"][1] <= by["SRPT"][1] + 1e-9  # FIFO wins the max
