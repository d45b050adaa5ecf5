"""The event-driven engine must reproduce the analytic EFT schedule."""

import pytest
from hypothesis import given, settings

from repro.core import EFT, Instance, Task
from repro.simulation import Simulator
from tests.conftest import restricted_unit_instances, unrestricted_instances


class TestEngineBasics:
    def test_simple_run(self):
        inst = Instance.build(2, releases=[0, 0, 1], procs=[2, 1, 1])
        sim = Simulator(EFT(2, tiebreak="min"))
        sim.add_instance(inst)
        result = sim.run()
        assert result.n_completed == 3
        result.schedule.validate()

    def test_m_mismatch(self):
        sim = Simulator(EFT(2))
        with pytest.raises(ValueError, match="m="):
            sim.add_instance(Instance.build(3, releases=[0]))

    def test_run_until(self):
        inst = Instance.build(1, releases=[0, 0], procs=[1, 1])
        sim = Simulator(EFT(1))
        sim.add_instance(inst)
        result = sim.run(until=1.0)
        assert result.n_completed == 1

    def test_observer_callback(self):
        inst = Instance.build(1, releases=[0], procs=[2])
        sim = Simulator(EFT(1))
        sim.add_instance(inst)
        seen = {}
        sim.at(1.0, lambda s: seen.setdefault("profile", s.waiting_profile()))
        sim.run()
        assert seen["profile"] == [1.0]

    def test_observer_can_inject_tasks(self):
        """Adaptive-adversary hook: inject a task at observation time."""
        sim = Simulator(EFT(1))
        sim.add_tasks([Task(tid=0, release=0, proc=1)])

        def inject(s):
            s.add_tasks([Task(tid=1, release=s.now, proc=1)])

        sim.at(5.0, inject)
        result = sim.run()
        assert result.n_completed == 2
        assert result.schedule.start_of(1) == 5.0

    def test_utilization(self):
        inst = Instance.build(2, releases=[0, 0], procs=[2, 2])
        sim = Simulator(EFT(2))
        sim.add_instance(inst)
        result = sim.run()
        assert result.utilization == pytest.approx(1.0)

    def test_uncompleted_on(self):
        sim = Simulator(EFT(1))
        sim.add_tasks([Task(tid=0, release=0, proc=5), Task(tid=1, release=0, proc=5)])
        sim.at(1.0, lambda s: None)
        sim.run(until=1.0)
        assert sim.uncompleted_on([1]) == 2


class TestPendingCount:
    def test_full_run_has_no_pending(self):
        inst = Instance.build(2, releases=[0, 0, 1], procs=[2, 1, 1])
        sim = Simulator(EFT(2))
        sim.add_instance(inst)
        assert sim.run().n_pending == 0

    def test_truncated_run_counts_unstarted(self):
        # One machine, three unit tasks released together: at until=1.5
        # task 0 finished, task 1 is running, task 2 never started.
        sim = Simulator(EFT(1))
        sim.add_tasks([Task(tid=t, release=0, proc=1) for t in range(3)])
        result = sim.run(until=1.5)
        assert result.n_completed == 1
        assert result.n_pending == 1
        assert len(result.schedule) == 2  # the started pair only

    def test_truncation_before_any_completion(self):
        # Both tasks released at 0; at until=1.0 task 0 is still running
        # and task 1 sits in the queue, released but never started.
        sim = Simulator(EFT(1))
        sim.add_tasks([Task(tid=0, release=0, proc=5), Task(tid=1, release=0, proc=5)])
        result = sim.run(until=1.0)
        assert result.n_completed == 0
        assert result.n_pending == 1


class TestEngineMatchesAnalyticDriver:
    @given(unrestricted_instances())
    @settings(max_examples=50, deadline=None)
    def test_same_schedule_unrestricted(self, inst):
        analytic = EFT(inst.m, tiebreak="min").run(inst)
        sim = Simulator(EFT(inst.m, tiebreak="min"))
        sim.add_instance(inst)
        result = sim.run()
        assert result.schedule.same_placements(analytic)
        assert result.max_flow == pytest.approx(analytic.max_flow)

    @given(restricted_unit_instances())
    @settings(max_examples=50, deadline=None)
    def test_same_schedule_restricted(self, inst):
        analytic = EFT(inst.m, tiebreak="max").run(inst)
        sim = Simulator(EFT(inst.m, tiebreak="max"))
        sim.add_instance(inst)
        result = sim.run()
        assert result.schedule.same_placements(analytic)
