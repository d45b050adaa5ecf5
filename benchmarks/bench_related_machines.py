"""Table 1 context bench: Greedy vs Slow-Fit on related machines.

Table 1 cites Greedy (≥ Ω(log m)) and Slow-Fit (≥ Ω(m)) for max-flow
on related machines — complementary failure modes that motivate
Double-Fit.  This bench makes the environment runnable: a two-tier
cluster serving a bursty stream with occasional huge tasks, where
Greedy clogs the fast machines with small work while Slow-Fit keeps
them free (and pays elsewhere).
"""

import numpy as np
import pytest

from repro.core import Instance
from repro.experiments.common import TextTable
from repro.related import GreedyRelated, SlowFitRelated, SpeedCluster


def _bursty_instance(m: int, n: int, rng_seed: int) -> Instance:
    rng = np.random.default_rng(rng_seed)
    releases = np.sort(rng.uniform(0, n / (2 * m), size=n))
    works = rng.uniform(0.5, 1.5, size=n)
    big = rng.choice(n, size=max(1, n // 20), replace=False)
    works[big] = rng.uniform(10, 20, size=big.size)
    return Instance.build(m, releases=releases, procs=works)


@pytest.mark.ablation
def test_greedy_vs_slowfit():
    m, n = 8, 400
    cluster = SpeedCluster.two_tier(m, fast=2, speedup=8.0)

    table = TextTable(
        title=f"Related machines (Q): Greedy vs Slow-Fit, two-tier cluster m={m}",
        headers=["algorithm", "median Fmax", "mean flow", "doublings"],
    )
    for name, factory in (
        ("Greedy", lambda: GreedyRelated(cluster)),
        ("Slow-Fit", lambda: SlowFitRelated(cluster)),
    ):
        fmaxes, means, doublings = [], [], []
        for seed in range(5):
            scheduler = factory()
            sched = scheduler.run(_bursty_instance(m, n, seed))
            fmaxes.append(sched.max_flow)
            means.append(sched.mean_flow)
            doublings.append(getattr(scheduler, "doublings", 0))
        table.add_row(
            name,
            float(np.median(fmaxes)),
            float(np.mean(means)),
            int(np.median(doublings)),
        )
    print()
    print(table.to_text())
    assert len(table.rows) == 2
    assert all(row[1] > 0 for row in table.rows)
