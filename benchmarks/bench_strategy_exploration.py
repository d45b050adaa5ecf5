"""Future-work ablation: candidate replication strategies.

The paper's conclusion asks for a strategy with good average *and*
worst-case behaviour.  This bench scores the paper's two strategies
plus three candidates on both axes and checks the headline finding:
the mirrored (alternating-direction) interval layout keeps the
overlapping strategy's capacity while blunting the Theorem 8 cascade.
"""

import pytest

from repro.explore import adversarial_probe, evaluate_strategies
from repro.explore.strategies import MirroredIntervals
from repro.psets import OverlappingIntervals


@pytest.mark.ablation
def test_strategy_exploration(scale):
    perms = 40 if scale == "full" else 12
    sim_tasks = 6000 if scale == "full" else 1500
    table = evaluate_strategies(m=15, k=3, n_permutations=perms, sim_tasks=sim_tasks)
    print()
    print(table.to_text())
    by_name = {row[0]: row for row in table.rows}
    # overlapping dominates disjoint on capacity (the paper's finding)
    assert by_name["overlapping"][2] >= by_name["disjoint"][2]
    # mirrored keeps (almost) the same capacity...
    assert by_name["mirrored"][2] >= by_name["overlapping"][2] - 3
    # ...with a strictly smaller adversarial probe
    assert by_name["mirrored"][5] < by_name["overlapping"][5]


@pytest.mark.ablation
def test_probe_collapse_comparison():
    m, k = 12, 3

    over = adversarial_probe(OverlappingIntervals(m, k), steps=4 * m**2)
    mirrored = adversarial_probe(MirroredIntervals(m, k), steps=4 * m**2)
    print(f"\nTheorem 8 probe (m={m}, k={k}): overlapping Fmax={over:g} "
          f"(= m-k+1={m - k + 1}), mirrored Fmax={mirrored:g}")
    assert over == m - k + 1
    assert mirrored < over
