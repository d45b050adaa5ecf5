"""Empirical competitive ratios of EFT vs exact optima (the
experimental counterpart of the Table 2 guarantees)."""

import pytest

from repro.experiments import ratios


@pytest.mark.paper
def test_ratio_study(scale):
    trials = 40 if scale == "full" else 15
    table = ratios.run(m=8, k=3, n=40, trials=trials, rng_seed=5)
    print()
    print(table.to_text())
    unrestricted, disjoint, overlapping = table.rows
    assert float(unrestricted[2]) <= 3 - 2 / 8 + 1e-9  # Theorem 1
    assert float(disjoint[2]) <= 3 - 2 / 3 + 1e-9  # Corollary 1
