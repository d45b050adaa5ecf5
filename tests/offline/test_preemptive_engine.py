"""Tests for the online preemptive engine and its policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Instance, fifo_schedule
from repro.offline import (
    PreemptiveEngine,
    fifo_priority,
    optimal_preemptive_fmax,
    srpt_priority,
    validate_pieces,
)
from tests.conftest import restricted_unit_instances, unrestricted_instances


@given(
    st.one_of(
        unrestricted_instances(max_m=4, max_n=15),
        restricted_unit_instances(max_m=4, max_n=12),
    ),
    st.sampled_from([fifo_priority, srpt_priority]),
)
@settings(max_examples=80, deadline=None)
def test_timetable_is_a_valid_preemptive_schedule(inst, priority):
    """The engine's pieces are a feasible preemptive timetable meeting
    its own max flow: every task gets exactly its work, after its
    release, on eligible machines, with no machine overlap and no task
    parallelism."""
    result = PreemptiveEngine(priority).run(inst)
    validate_pieces(inst, result.pieces, result.max_flow)


class TestPolicies:
    @given(unrestricted_instances(max_m=4, max_n=15))
    @settings(max_examples=40, deadline=None)
    def test_preemptive_fifo_matches_nonpreemptive(self, inst):
        """FIFO priorities never preempt (running tasks were released
        no later), so the completion profile equals non-preemptive
        FIFO's on unrestricted instances."""
        pre = PreemptiveEngine(fifo_priority).run(inst)
        non = fifo_schedule(inst, tiebreak="min")
        assert pre.preemptions == 0
        assert pre.max_flow == pytest.approx(non.max_flow, abs=1e-6)

    def test_srpt_improves_mean_flow(self):
        """The classic SRPT win: a short task released during a long
        one finishes immediately under SRPT."""
        inst = Instance.build(1, releases=[0.0, 1.0], procs=[10.0, 1.0])
        fifo = PreemptiveEngine(fifo_priority).run(inst)
        srpt = PreemptiveEngine(srpt_priority).run(inst)
        assert srpt.preemptions >= 1
        assert srpt.mean_flow < fifo.mean_flow
        assert srpt.flows[1] == pytest.approx(1.0)

    def test_srpt_can_hurt_max_flow(self):
        """...but SRPT starves the long task — its Fmax suffers, which
        is why the paper's objective favours FIFO-like policies."""
        inst = Instance.build(
            1, releases=[0.0] + [float(i) for i in range(1, 8)], procs=[5.0] + [1.0] * 7
        )
        fifo = PreemptiveEngine(fifo_priority).run(inst)
        srpt = PreemptiveEngine(srpt_priority).run(inst)
        assert srpt.max_flow > fifo.max_flow

    @given(restricted_unit_instances(max_m=4, max_n=10))
    @settings(max_examples=25, deadline=None)
    def test_never_beats_preemptive_opt(self, inst):
        """Any online preemptive policy is bounded below by the exact
        preemptive optimum."""
        online = PreemptiveEngine(fifo_priority).run(inst).max_flow
        opt = optimal_preemptive_fmax(inst)
        assert online >= opt - 1e-4

    @given(unrestricted_instances(max_m=3, max_n=10))
    @settings(max_examples=25, deadline=None)
    def test_fifo_within_paper_bound_of_preemptive_opt(self, inst):
        """Table 1: preemptive FIFO is (3 - 2/m)-competitive."""
        online = PreemptiveEngine(fifo_priority).run(inst).max_flow
        opt = optimal_preemptive_fmax(inst)
        assert online <= (3 - 2 / inst.m) * opt + 1e-4
