"""Extension bench: tail-latency percentile breakdown.

The paper's motivating problem (Section 1) is the latency *tail*.
This bench regenerates the percentile table across strategies and
policies and checks the qualitative claim: the median is insensitive,
the p99/max carry all the damage.
"""

import pytest

from repro.experiments import tails


@pytest.mark.paper
def test_tail_percentiles(scale):
    n = 8000 if scale == "full" else 3000
    table = tails.run(m=15, k=3, n=n, load=0.45, repeats=3)
    print()
    print(table.to_text())
    rows = {(r[0], r[1]): r for r in table.rows}
    over = rows[("overlapping", "EFT-Min")]
    disj = rows[("disjoint", "EFT-Min")]
    # medians are close...
    assert abs(over[2] - disj[2]) <= 1.0
    # ...but the disjoint tail is clearly worse
    assert disj[4] > over[4]
    assert disj[5] > over[5]
    # percentiles are ordered within every row
    for row in table.rows:
        assert row[2] <= row[3] <= row[4] <= row[5]
