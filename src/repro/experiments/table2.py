"""Table 2 — this paper's bounds, verified empirically.

For every row of the paper's Table 2 the harness *runs* the
corresponding adversary against the named algorithm class and reports
the achieved ratio next to the theoretical bound:

* Theorem 3 (inclusive) — :class:`InclusiveAdversary` vs EFT-Min;
* Theorem 4 (``|M_i| = k``) — :class:`FixedKAdversary` vs EFT-Min;
* Theorem 5 (nested) — :class:`NestedAdversary` vs EFT-Min;
* Corollary 1 (disjoint) — EFT on random disjoint instances vs the
  exact unit optimum (ratio must stay below :math:`3 - 2/k`);
* Theorem 7 (interval, any online) — :class:`IntervalTwoAdversary`;
* Theorems 8/10 (interval, EFT) — :class:`EFTIntervalAdversary` and
  :class:`AnyTiebreakAdversary`.
"""

from __future__ import annotations

import numpy as np

from ..adversaries import (
    AnyTiebreakAdversary,
    EFTIntervalAdversary,
    FixedKAdversary,
    InclusiveAdversary,
    IntervalTwoAdversary,
    NestedAdversary,
)
from ..core.eft import EFT, eft_schedule
from ..core.task import Instance
from ..offline.unit_opt import optimal_unit_fmax
from ..psets.replication import DisjointIntervals
from ..theory.bounds import eft_disjoint_ratio
from .common import TextTable

__all__ = ["run", "disjoint_empirical_ratio"]


def disjoint_empirical_ratio(
    m: int, k: int, n: int, rng: np.random.Generator | int | None = None
) -> float:
    """Worst EFT/OPT ratio over a random unit instance with disjoint
    size-``k`` sets (must be ≤ ``3 - 2/k`` by Corollary 1)."""
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    strat = DisjointIntervals(m, k)
    releases = np.sort(gen.integers(0, max(2, n // m), size=n)).astype(float)
    homes = gen.integers(1, m + 1, size=n)
    machine_sets = [strat.replicas(int(h)) for h in homes]
    inst = Instance.build(m, releases=releases, procs=1.0, machine_sets=machine_sets)
    eft_val = eft_schedule(inst, tiebreak="min").max_flow
    opt_val = optimal_unit_fmax(inst)
    return eft_val / opt_val


def run(
    m: int = 16, k: int = 3, p: float = 1000.0, rng_seed: int = 0
) -> TextTable:
    """Regenerate Table 2, empirically realising each bound.

    ``m`` should be a power of 2 for the log-structured adversaries to
    bind exactly; ``p`` controls how close the finite-:math:`p`
    adversaries get to their asymptotic bounds.
    """
    table = TextTable(
        title=f"Table 2: competitive ratios for P|online-r_i,M_i|Fmax (m={m}, k={k})",
        headers=["Structure", "Algorithm", "Bound", "Theory", "Achieved", "Ref."],
    )
    mk_min = lambda mm: EFT(mm, tiebreak="min")  # noqa: E731

    adv3 = InclusiveAdversary(m, p=p)
    r3 = adv3.run(mk_min)
    table.add_row("inclusive", "immediate dispatch", ">=", adv3.theoretical_bound(), r3.ratio, "Thm 3")

    adv4 = FixedKAdversary(m, max(2, k), p=p)
    r4 = adv4.run(mk_min)
    table.add_row(f"|Mi|={max(2, k)}", "immediate dispatch", ">=", adv4.theoretical_bound(), r4.ratio, "Thm 4")

    adv5 = NestedAdversary(m)
    r5 = adv5.run(mk_min)
    table.add_row("nested", "any online", ">=", adv5.theoretical_bound(), r5.ratio, "Thm 5")

    worst = max(
        disjoint_empirical_ratio(m, k, n=8 * m, rng=rng_seed + trial) for trial in range(5)
    )
    table.add_row(
        f"disjoint, |Mi|={k}", "EFT", "<=", eft_disjoint_ratio(k), worst, "Cor 1"
    )

    adv7 = IntervalTwoAdversary(p=p)
    r7 = adv7.run(mk_min)
    table.add_row("interval, |Mi|=2", "any online", ">=", 2.0, r7.ratio, "Thm 7")

    adv8 = EFTIntervalAdversary(m, k)
    r8 = adv8.run(mk_min)
    table.add_row(f"interval, |Mi|={k}", "EFT-Min", ">=", m - k + 1, r8.ratio, "Thm 8")

    adv9 = EFTIntervalAdversary(m, k, steps=4 * m**3)
    r9 = adv9.run(lambda mm: EFT(mm, tiebreak="rand", rng=rng_seed))
    table.add_row(f"interval, |Mi|={k}", "EFT-Rand", ">=", m - k + 1, r9.ratio, "Thm 9")

    adv10 = AnyTiebreakAdversary(min(m, 8), k if k < min(m, 8) else 2, steps=min(m, 8) ** 3)
    r10 = adv10.run(lambda mm: EFT(mm, tiebreak="max"))
    table.add_row(
        f"interval, |Mi|={adv10.k}",
        "EFT-any-tiebreak (Max)",
        ">=",
        adv10.theoretical_bound(),
        adv10.regular_max_flow(r10) / r10.opt_fmax,
        "Thm 10",
    )
    table.notes.append(
        "log-bound adversaries approach their theory value as p -> infinity; "
        f"run here with p = {p:g}"
    )
    table.notes.append("Cor 1 row reports the worst observed EFT/OPT ratio (upper-bound check)")
    return table
