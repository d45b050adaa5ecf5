"""Table 1 — context table of known max-flow results.

Renders the registry with closed forms evaluated at the paper's
reference cluster size (m = 15) and checks internal consistency.
"""

import pytest

from repro.experiments import table1


@pytest.mark.paper
def test_table1_render():
    table = table1.run(15)
    print()
    print(table.to_text())
    assert len(table.rows) >= 10
