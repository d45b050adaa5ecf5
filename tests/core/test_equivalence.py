"""Proposition 1: FIFO and EFT produce identical schedules on
``P | online-r_i | Fmax`` when sharing the tie-break policy.

The two schedulers are independent implementations (push/analytic vs
pull/event-driven), so this is a genuine cross-check of the paper's
equivalence proof — including the random tie-break, provided both draw
from identically seeded generators.
"""

import numpy as np
from hypothesis import given, settings

from repro.core import EFT, FIFO, Instance, eft_schedule, fifo_schedule
from tests.conftest import unrestricted_instances


@given(unrestricted_instances())
@settings(max_examples=120, deadline=None)
def test_fifo_equals_eft_min(inst):
    assert EFT(inst.m, tiebreak="min").run(inst).same_placements(
        fifo_schedule(inst, tiebreak="min")
    )


@given(unrestricted_instances())
@settings(max_examples=60, deadline=None)
def test_fifo_equals_eft_max(inst):
    assert EFT(inst.m, tiebreak="max").run(inst).same_placements(
        fifo_schedule(inst, tiebreak="max")
    )


@given(unrestricted_instances(unit=True, integral_releases=True))
@settings(max_examples=60, deadline=None)
def test_fifo_equals_eft_unit_tasks(inst):
    """Unit tasks maximise simultaneous completions (hence ties) —
    the hardest case for the equivalence."""
    assert EFT(inst.m, tiebreak="min").run(inst).same_placements(
        fifo_schedule(inst, tiebreak="min")
    )


@given(unrestricted_instances())
@settings(max_examples=40, deadline=None)
def test_fifo_equals_eft_random_tiebreak(inst):
    """With identically seeded random tie-breaks the decision sequences
    align one-to-one, so the schedules must still match."""
    a = EFT(inst.m, tiebreak="rand", rng=99).run(inst)
    b = FIFO(inst.m, tiebreak="rand", rng=99).run(inst)
    assert a.same_placements(b)


@given(unrestricted_instances())
@settings(max_examples=60, deadline=None)
def test_equal_objectives_follow(inst):
    """Corollary of Proposition 1: identical Fmax (and every flow)."""
    a = EFT(inst.m, tiebreak="min").run(inst)
    b = fifo_schedule(inst, tiebreak="min")
    assert a.max_flow == b.max_flow
    assert np.allclose(a.flows(), b.flows())


def test_divergence_without_shared_tiebreak():
    """Sanity: with different tie-breaks the schedules may differ —
    the equivalence really does hinge on the shared policy."""
    inst = Instance.build(2, releases=[0.0, 0.0], procs=[1.0, 2.0])
    a = eft_schedule(inst, tiebreak="min")
    b = fifo_schedule(inst, tiebreak="max")
    assert not a.same_placements(b)
