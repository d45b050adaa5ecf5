"""Tests for Greedy and Slow-Fit on related machines."""

import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.core import EFT, Instance
from repro.faults import FaultSchedule
from repro.related import GreedyRelated, SlowFitRelated, SpeedCluster
from tests.conftest import examples, faulted_decisions, faulted_streams, unrestricted_instances

# Machine 1 frees at 0.1 + 0.1 + 0.1 = 0.30000000000000004, machine 2 at
# 0.25; task 5 (r=0.3, p=1) finishes at 1.3 on both after rounding, but
# only machine 2 is in EFT-Min's U'_i (it can start at r).
_ROUNDED_FINISH_TIE = (
    Instance.build(2, releases=[0, 0, 0, 0, 0, 0.3], procs=[0.1, 0.125, 0.1, 0.125, 0.1, 1.0]),
    FaultSchedule.build([(1, 50.0, 51.0)]),
    "restart",
)


class TestGreedy:
    def test_prefers_fast_machine_when_idle(self):
        cluster = SpeedCluster(np.array([1.0, 4.0]))
        inst = Instance.build(2, releases=[0], procs=[4.0])
        sched = GreedyRelated(cluster).run(inst)
        assert sched.machine_of(0) == 2
        assert sched[0].task.proc == 1.0  # 4 work / speed 4

    def test_balances_by_finish_time(self):
        cluster = SpeedCluster(np.array([1.0, 2.0]))
        inst = Instance.build(2, releases=[0, 0], procs=[2.0, 2.0])
        sched = GreedyRelated(cluster).run(inst)
        # first task -> machine 2 (finish 1); second: M1 finish 2 vs
        # M2 finish 2 — tie on finish, faster machine wins
        assert sched.machine_of(0) == 2
        assert sched.machine_of(1) == 2

    def test_respects_processing_sets(self):
        cluster = SpeedCluster(np.array([1.0, 10.0]))
        inst = Instance.build(2, releases=[0], procs=[5.0], machine_sets=[{1}])
        sched = GreedyRelated(cluster).run(inst)
        assert sched.machine_of(0) == 1

    def test_schedule_valid(self):
        cluster = SpeedCluster.geometric(3)
        inst = Instance.build(3, releases=[0, 0, 1, 2], procs=[3, 1, 2, 1])
        sched = GreedyRelated(cluster).run(inst)
        sched.validate()

    @given(faulted_streams(max_m=4, max_n=20))
    @example(_ROUNDED_FINISH_TIE)
    @settings(max_examples=examples(40), deadline=None)
    def test_identical_speeds_reduce_to_eft(self, stream):
        """With unit speeds Greedy (the zoo's Speed-EFT) decides exactly
        like EFT-Min (finish-time tie -> earlier start, then lower
        index, same as EFT-Min's tie set choice): on the analytic driver and, decision for
        decision, through machine outages under both fault policies
        (Bansal & Kulkarni's related-machines reduction)."""
        inst = stream[0]
        sched_q = GreedyRelated(SpeedCluster.identical(inst.m)).run(inst)
        assert sched_q.same_placements(EFT(inst.m, tiebreak="min").run(inst), tol=0.0)
        assert faulted_decisions(
            GreedyRelated(SpeedCluster.identical(inst.m)), stream
        ) == faulted_decisions(EFT(inst.m, tiebreak="min"), stream)

    def test_release_order_enforced(self):
        from repro.core import Task

        g = GreedyRelated(SpeedCluster.identical(2))
        g.submit(Task(tid=0, release=5, proc=1))
        with pytest.raises(ValueError, match="release order"):
            g.submit(Task(tid=1, release=1, proc=1))


class TestSlowFit:
    def test_prefers_slow_machine_that_fits(self):
        cluster = SpeedCluster(np.array([1.0, 4.0]))
        # With a generous bound both machines meet the deadline and the
        # slowest wins; with a tight bound only the fast machine fits.
        inst = Instance.build(2, releases=[0], procs=[1.0])
        generous = SlowFitRelated(cluster, initial_bound=2.0).run(inst)
        assert generous.machine_of(0) == 1
        tight = SlowFitRelated(cluster).run(inst)  # bound = fastest time
        assert tight.machine_of(0) == 2

    def test_reserves_fast_machine(self):
        """Steady small tasks go to the slow machine, leaving the fast
        one free for a later big task — the scenario Greedy fumbles."""
        cluster = SpeedCluster(np.array([1.0, 8.0]))
        releases = [0.0, 0.0, 0.0, 1.0]
        works = [1.0, 1.0, 1.0, 16.0]
        inst = Instance.build(2, releases=releases, procs=works)
        sf_sched = SlowFitRelated(cluster, initial_bound=4.0).run(inst)
        # with Lambda = 4, small tasks (deadline r+8) fit on the slow
        # machine back-to-back (finish 1, 2, 3); the big task needs the
        # fast machine (16/8 = 2 <= 8).
        assert [sf_sched.machine_of(i) for i in range(3)] == [1, 1, 1]
        assert sf_sched.machine_of(3) == 2

    def test_doubling_counted(self):
        cluster = SpeedCluster(np.array([1.0]))
        inst = Instance.build(1, releases=[0, 0, 0, 0], procs=[1.0, 1.0, 1.0, 1.0])
        sf = SlowFitRelated(cluster)
        sf.run(inst)
        assert sf.doublings >= 1  # queueing forces the bound up

    def test_schedule_valid(self):
        cluster = SpeedCluster.two_tier(4, fast=1, speedup=4.0)
        inst = Instance.build(4, releases=[0, 0, 1, 1, 2, 3], procs=[2, 1, 4, 1, 2, 1])
        sched = SlowFitRelated(cluster).run(inst)
        sched.validate()

    @given(unrestricted_instances(max_m=4, max_n=12))
    @settings(max_examples=30, deadline=None)
    def test_valid_on_random(self, inst):
        cluster = SpeedCluster.geometric(inst.m, ratio=1.5)
        SlowFitRelated(cluster).run(inst).validate()

    def test_respects_processing_sets(self):
        cluster = SpeedCluster(np.array([1.0, 10.0]))
        inst = Instance.build(2, releases=[0, 0], procs=[2.0, 2.0], machine_sets=[{1}, {1}])
        sched = SlowFitRelated(cluster).run(inst)
        sched.validate()
        assert all(sched.machine_of(i) == 1 for i in range(2))


class TestGreedyVsSlowFit:
    def test_complementary_failure_modes(self):
        """The scenario motivating Double-Fit: a stream of small tasks
        followed by a huge one.  Greedy parks small work on the fast
        machine (it finishes earliest there), so the big task finds it
        busy; Slow-Fit kept it free."""
        cluster = SpeedCluster(np.array([1.0, 8.0]))
        releases = [0.0, 0.1, 0.2, 0.3]
        works = [1.0, 1.0, 1.0, 24.0]
        inst = Instance.build(2, releases=releases, procs=works)
        greedy = GreedyRelated(cluster).run(inst)
        slowfit = SlowFitRelated(cluster, initial_bound=4.0).run(inst)
        big = 3
        assert slowfit.machine_of(big) == 2
        assert slowfit.flow_of(big) <= greedy.flow_of(big) + 1e-9
