"""Figure 11 — Fmax vs average load for EFT-Min/EFT-Max under both
replication strategies and the three popularity cases.

``quick``: 3 000 tasks, 3 repeats, coarse load grid.
``full``: the paper's 10 000 tasks, 10 repeats, full grid.
"""

import pytest

from repro.experiments import fig11


@pytest.mark.paper
def test_fig11_simulation(scale):
    if scale == "full":
        kwargs = dict(m=15, k=3, n=10_000, repeats=10)
    else:
        kwargs = dict(
            m=15,
            k=3,
            n=3000,
            repeats=3,
            loads={
                "uniform": (20, 50, 80, 90),
                "shuffled": (10, 25, 40, 50),
                "worst": (10, 20, 30, 40),
            },
        )
    result = fig11.run(**kwargs)
    print()
    print(result.to_text())

    # Red lines match the paper's facet annotations.
    lines = result.max_load_lines
    assert abs(lines["uniform"]["overlapping"] - 100) < 1
    assert abs(lines["worst"]["overlapping"] - 59) < 2
    assert abs(lines["worst"]["disjoint"] - 36) < 2

    # Shapes: Fmax grows with load; overlapping beats disjoint at the
    # top of every facet.
    for case in ("uniform", "shuffled", "worst"):
        for strategy in ("overlapping", "disjoint"):
            series = result.series(case, strategy, "EFT-Min")
            assert series[-1][1] >= series[0][1]
        ov = dict(result.series(case, "overlapping", "EFT-Min"))
        dj = dict(result.series(case, "disjoint", "EFT-Min"))
        top = max(ov)
        assert ov[top] <= dj[top] + 1e-9
