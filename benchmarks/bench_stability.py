"""Extension bench: the LP capacity line as a dynamic phase boundary.

Below the line the max flow plateaus with the horizon; above it, work
accumulates and Fmax grows linearly — connecting Section 7.2's static
LP analysis to Section 7.4's dynamic simulations.
"""

import pytest

from repro.experiments import stability


@pytest.mark.paper
def test_stability_phase_boundary(scale):
    ns = (1000, 2000, 4000, 8000) if scale == "full" else (500, 1000, 2000, 4000)
    table = stability.run(m=15, k=3, ns=ns, repeats=3)
    print()
    print(table.to_text())
    stable_row, unstable_row = table.rows
    stable_slope = float(stable_row[-1])
    unstable_slope = float(unstable_row[-1])
    # unstable growth dominates stable drift by an order of magnitude
    assert unstable_slope > 10 * max(stable_slope, 1e-6)
    # unstable Fmax roughly doubles when n doubles (linear growth)
    assert unstable_row[-2] > 1.5 * unstable_row[-3]
