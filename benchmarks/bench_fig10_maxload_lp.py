"""Figure 10 — max-load LP sweep over (s, k) for both strategies.

``quick``: 11x8 grid, 25 permutations (~paper shapes, seconds).
``full``: the paper's 21x15 grid with 100 permutations.
"""

import numpy as np
import pytest

from repro.experiments import fig10


@pytest.mark.paper
def test_fig10_maxload_sweep(scale):
    if scale == "full":
        kwargs = dict(m=15, n_permutations=100)  # paper grid by default
    else:
        kwargs = dict(
            m=15,
            s_values=np.arange(0.0, 5.01, 0.5),
            k_values=np.array([1, 2, 3, 4, 6, 8, 11, 15]),
            n_permutations=25,
        )
    result = fig10.run(**kwargs)
    print()
    print(result.to_text())
    ratio = result.sweep.ratio()
    # Paper shapes: overlapping never worse; equal at s=0 and k=m;
    # peak gain ~1.5 somewhere in the mid-k, s~1-1.5 region.
    assert np.all(ratio >= 1 - 1e-9)
    assert np.allclose(ratio[0], 1.0)
    assert np.allclose(ratio[:, -1], 1.0)
    assert 1.35 < result.peak_gain < 1.75
    assert 3 <= result.peak_at[1] <= 9
