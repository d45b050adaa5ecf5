"""Empirical competitive-ratio studies (beyond the paper's figures).

Measures EFT's Fmax against the *exact* offline optimum on random
structured instances — the experimental counterpart of Table 2's
guarantees:

* disjoint sets: ratio must stay within ``3 - 2/k`` (Corollary 1);
* unrestricted: ratio must stay within ``3 - 2/m`` (Theorem 1);
* interval sets: no upper guarantee (Theorem 8), so the study reports
  the observed spread instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.eft import eft_schedule
from ..core.task import Instance
from ..offline.unit_opt import optimal_unit_fmax
from ..psets.replication import get_strategy
from .common import TextTable

__all__ = ["RatioStudy", "random_structured_instance", "run"]


def random_structured_instance(
    m: int,
    k: int,
    n: int,
    strategy: str,
    rng: np.random.Generator,
    max_gap: int | None = None,
) -> Instance:
    """Random unit instance with integral releases and replica-set
    restrictions from ``strategy`` (``none`` → unrestricted)."""
    horizon = max(2, n // m if max_gap is None else max_gap)
    releases = np.sort(rng.integers(0, horizon, size=n)).astype(float)
    if strategy == "full":
        machine_sets = [None] * n
    else:
        strat = get_strategy(strategy, m, k)
        homes = rng.integers(1, m + 1, size=n)
        machine_sets = [strat.replicas(int(h)) for h in homes]
    return Instance.build(m, releases=releases, procs=1.0, machine_sets=machine_sets)


@dataclass(frozen=True)
class RatioStudy:
    """Distribution of EFT/OPT ratios over random instances."""

    strategy: str
    m: int
    k: int
    trials: int
    ratios: np.ndarray

    @property
    def worst(self) -> float:
        return float(self.ratios.max())

    @property
    def mean(self) -> float:
        return float(self.ratios.mean())


def study(
    strategy: str,
    m: int,
    k: int,
    n: int,
    trials: int,
    tiebreak: str = "min",
    rng_seed: int = 0,
) -> RatioStudy:
    """Measure EFT/OPT on ``trials`` random unit instances."""
    rng = np.random.default_rng(rng_seed)
    ratios = []
    for _ in range(trials):
        inst = random_structured_instance(m, k, n, strategy, rng)
        eft_val = eft_schedule(inst, tiebreak=tiebreak).max_flow
        opt_val = optimal_unit_fmax(inst)
        ratios.append(eft_val / opt_val)
    return RatioStudy(strategy=strategy, m=m, k=k, trials=trials, ratios=np.array(ratios))


def run(m: int = 8, k: int = 3, n: int = 40, trials: int = 20, rng_seed: int = 5) -> TextTable:
    """Render the ratio study table for the three settings."""
    table = TextTable(
        title=f"EFT vs exact OPT on random unit instances (m={m}, k={k}, n={n}, {trials} trials)",
        headers=["processing sets", "guarantee", "worst ratio", "mean ratio"],
    )
    full = study("full", m, k, n, trials, rng_seed=rng_seed)
    table.add_row("unrestricted", f"<= {3 - 2 / m:.3f} (Thm 1)", full.worst, full.mean)
    disj = study("disjoint", m, k, n, trials, rng_seed=rng_seed + 1)
    table.add_row("disjoint intervals", f"<= {3 - 2 / k:.3f} (Cor 1)", disj.worst, disj.mean)
    over = study("overlapping", m, k, n, trials, rng_seed=rng_seed + 2)
    table.add_row("overlapping intervals", f"no bound (< {m - k + 1} forced, Thm 8)", over.worst, over.mean)
    return table
