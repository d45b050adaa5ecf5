"""Figure 3/4 — EFT-Min trace on the Theorem 8 adversary (m=6, k=3)."""

import numpy as np
import pytest

from repro.experiments import fig03


@pytest.mark.paper
def test_fig03_trace():
    result = fig03.run(m=6, k=3)
    print()
    print(result.to_text())
    assert result.fmax == 4.0  # m - k + 1
    assert result.converged_at is not None
    assert np.allclose(result.profiles[-1], result.stable)
