"""Table 2 — this paper's competitive-ratio bounds, realised by
running every adversary against its algorithm class.

``quick`` scale uses m = 16 with p = 1000 (log-bound adversaries land
within 1% of their asymptote); ``full`` uses p = 100 000.
"""

import pytest

from repro.experiments import table2


@pytest.mark.paper
def test_table2_bounds(scale):
    p = 100_000.0 if scale == "full" else 1000.0
    table = table2.run(m=16, k=3, p=p)
    print()
    print(table.to_text())
    # every lower-bound row must achieve >= 95% of its theory value
    for row in table.rows:
        structure, algo, kind, theory, achieved, ref = row
        if kind == ">=":
            assert float(achieved) >= 0.95 * float(theory), row
        else:
            assert float(achieved) <= float(theory) + 1e-9, row
