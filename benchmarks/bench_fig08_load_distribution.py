"""Figure 8 — per-machine load under the three popularity cases."""

import pytest

from repro.experiments import fig08


@pytest.mark.paper
def test_fig08_load_distribution():
    table = fig08.run(6, 1.0, 7)
    print()
    print(table.to_text())
    # Worst-case hot machine at ~2.449 (m=6, s=1, lambda=m), as drawn.
    worst = [float(x) for x in table.rows[1][1:-1]]
    assert abs(worst[0] - 2.449) < 0.01
