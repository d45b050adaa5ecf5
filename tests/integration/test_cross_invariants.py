"""Cross-module invariants: every solver/scheduler pair must agree on
the partial order the theory dictates.

For a unit, integral-release, restricted instance the full chain is

    lower bounds <= preemptive OPT <= non-preemptive OPT (= unit OPT)
        <= FPTAS value <= (1+eps) OPT, and OPT <= EFT <= RestrictedFIFO-like
        heuristics' values are all >= OPT.

These orderings knit together seven independent implementations
(volume bounds, interval max-flow, matching, branch-and-bound, DP,
analytic EFT, event-driven engine), so a bug in any one of them shows
up as an inversion here.
"""

import pytest
from hypothesis import given, settings

from repro.core import EFT, RestrictedFIFO, eft_schedule
from repro.core.nonclairvoyant import LeastOutstanding
from repro.offline import (
    fptas_fmax,
    opt_lower_bound,
    optimal_fmax,
    optimal_preemptive_fmax,
    optimal_unit_fmax,
    optimal_unit_sum_flow,
)
from repro.simulation import Simulator
from tests.conftest import restricted_unit_instances, unrestricted_instances


@given(restricted_unit_instances(max_m=3, max_n=8))
@settings(max_examples=25, deadline=None)
def test_solver_chain_unit(inst):
    lb = opt_lower_bound(inst)
    pre = optimal_preemptive_fmax(inst)
    unit = float(optimal_unit_fmax(inst))
    bnb = optimal_fmax(inst)
    eps = 0.3
    fptas = fptas_fmax(inst, eps=eps)
    eft = eft_schedule(inst, tiebreak="min").max_flow
    assert lb <= pre + 1e-4
    assert pre <= unit + 1e-4
    assert unit == pytest.approx(bnb)
    assert bnb - 1e-6 <= fptas <= (1 + eps) * bnb + 1e-6
    assert eft >= unit - 1e-9


@given(restricted_unit_instances(max_m=4, max_n=12))
@settings(max_examples=30, deadline=None)
def test_all_schedulers_at_least_opt(inst):
    opt = float(optimal_unit_fmax(inst))
    for sched in (
        eft_schedule(inst, tiebreak="min"),
        eft_schedule(inst, tiebreak="max"),
        RestrictedFIFO(inst.m).run(inst),
        LeastOutstanding(inst.m).run(inst),
    ):
        assert sched.max_flow >= opt - 1e-9


@given(restricted_unit_instances(max_m=4, max_n=10))
@settings(max_examples=25, deadline=None)
def test_sum_and_max_optima_consistent(inst):
    """The min-sum schedule's mean bounds every schedule's mean; the
    min-max schedule's max bounds every schedule's max."""
    total, sum_sched = optimal_unit_sum_flow(inst)
    opt_max = float(optimal_unit_fmax(inst))
    eft = eft_schedule(inst, tiebreak="min")
    assert total <= float(eft.flows().sum()) + 1e-9
    assert opt_max <= sum_sched.max_flow + 1e-9
    assert opt_max <= eft.max_flow + 1e-9


@given(unrestricted_instances(max_m=4, max_n=12))
@settings(max_examples=25, deadline=None)
def test_three_eft_implementations_agree(inst):
    """Analytic driver, array fast path and event-driven engine are
    three routes to the same schedule."""
    analytic = EFT(inst.m, tiebreak="min").run(inst)
    assert eft_schedule(inst, tiebreak="min").max_flow == analytic.max_flow
    sim = Simulator(EFT(inst.m, tiebreak="min"), backend="reference")
    sim.add_instance(inst)
    assert sim.run().max_flow == pytest.approx(analytic.max_flow)


@given(restricted_unit_instances(max_m=4, max_n=10))
@settings(max_examples=20, deadline=None)
def test_replicating_more_never_hurts_opt(inst):
    """Growing every processing set can only lower the optimum
    (more scheduling freedom)."""
    m = inst.m
    grown = inst.with_machine_sets(
        [
            set(t.eligible(m)) | {min((max(t.eligible(m)) % m) + 1, m)}
            for t in inst
        ]
    )
    assert optimal_unit_fmax(grown) <= optimal_unit_fmax(inst)
