"""Ablation: the three max-load solvers (LP vs max-flow vs Hall).

DESIGN.md requires the LP to be cross-checked by independent methods;
this bench confirms their agreement at m = 15 (the exponential Hall
enumeration is the reference, viable only at small m).
"""

import pytest

from repro.maxload import max_load_flow, max_load_hall, max_load_lp
from repro.simulation import shuffled_case

POP = shuffled_case(15, 1.0, rng=42)


@pytest.mark.ablation
def test_lp_solver():
    sol = max_load_lp(POP, "overlapping", 3)
    assert sol.lam > 0


@pytest.mark.ablation
def test_flow_solver():
    lam = max_load_flow(POP, "overlapping", 3)
    assert lam == pytest.approx(max_load_lp(POP, "overlapping", 3).lam, abs=1e-5)


@pytest.mark.ablation
def test_hall_solver():
    lam = max_load_hall(POP, "overlapping", 3)
    assert lam == pytest.approx(max_load_lp(POP, "overlapping", 3).lam, rel=1e-6)
