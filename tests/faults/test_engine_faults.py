"""Fault-injected Simulator: dispatch, policies, parking, accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EFT, Instance, Task
from repro.faults import RESTART, RESUME, FaultSchedule, chaos_schedule
from repro.obs.sim import SimRecorder
from repro.simulation import Simulator, WorkloadSpec, generate_workload

from ..conftest import restricted_unit_instances


def simulate(inst, faults=None, policy=RESTART, obs=None):
    sim = Simulator(EFT(inst.m, tiebreak="min"), obs=obs, faults=faults, fault_policy=policy)
    sim.add_instance(inst)
    return sim.run(), sim


class TestValidation:
    def test_rejects_out_of_range_machine(self):
        faults = FaultSchedule.build([(9, 0.0, 1.0)])
        with pytest.raises(ValueError, match="machine 9"):
            Simulator(EFT(4, tiebreak="min"), faults=faults)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            Simulator(EFT(4, tiebreak="min"), fault_policy="teleport")


class TestRestartPolicy:
    def test_in_flight_task_restarts_elsewhere(self):
        # Task 0 runs on machine 1 from t=0; machine 1 fails at t=1 for
        # 2.5 units.  Under restart it loses its progress and re-runs on
        # machine 2 (the only alive candidate), completing at 1 + 2 = 3.
        inst = Instance.build(2, releases=[0.0], procs=2.0, machine_sets=[{1, 2}])
        faults = FaultSchedule.build([(1, 1.0, 3.5)])
        result, sim = simulate(inst, faults)
        assert result.n_completed == 1
        assert result.n_requeued == 1
        assert result.wasted_work == pytest.approx(1.0)
        assert sim.completions[0] == pytest.approx(3.0)
        assert sim.assigned_machine[0] == 2

    def test_queued_tasks_drain_to_alive_machines(self):
        inst = Instance.build(
            2,
            releases=[0.0, 0.0, 0.0],
            procs=1.0,
            machine_sets=[{1, 2}, {1, 2}, {1, 2}],
        )
        faults = FaultSchedule.build([(1, 0.5, 10.0)])
        result, sim = simulate(inst, faults)
        assert result.n_completed == 3
        # After the failure everything must have finished on machine 2.
        for tid, done in sim.completions.items():
            if done > 0.5:
                assert sim.assigned_machine[tid] == 2

    def test_killed_placement_leaves_outstanding_books(self):
        # LOR, m=3: task 0 starts on machine 1, is killed by the outage
        # [1, 2) and restarts on machine 3.  At t=3 machine 1 is idle
        # again, so task 1 (set {1, 2}) must go there: the kill retracts
        # the entry booked for task 0's first placement.
        from repro.schedulers import get_scheduler

        lor = get_scheduler("lor", 3)
        sim = Simulator(lor, faults=FaultSchedule.build([(1, 1.0, 2.0)]))
        sim.add_tasks([
            Task(tid=0, release=0.0, proc=10.0, machines=frozenset({1, 3})),
            Task(tid=1, release=3.0, proc=1.0, machines=frozenset({1, 2})),
        ])
        sim.run()
        assert sim.assigned_machine[0] == 3
        assert sim.assigned_machine[1] == 1
        assert lor.outstanding(3.0) == {1: 1, 2: 0, 3: 1}

    def test_replacement_writes_the_horizon(self):
        # EFT-Min, m=3, machine 1 down over [0.5, 100): task 0 is killed
        # and re-placed onto machine 2 (runs 4 -> 8).  Task 3 must read
        # that horizon and go to machine 3 (finishing at 5), not to
        # machine 2 behind task 0 (finishing at 9).
        sim = Simulator(
            EFT(3, tiebreak="min"), faults=FaultSchedule.build([(1, 0.5, 100.0)]),
            backend="reference",
        )
        sim.add_tasks([
            Task(tid=0, release=0.0, proc=4.0, machines=frozenset({1, 2})),
            Task(tid=1, release=0.0, proc=4.0, machines=frozenset({2, 3})),
            Task(tid=2, release=0.0, proc=4.0, machines=frozenset({3})),
            Task(tid=3, release=1.0, proc=1.0, machines=frozenset({2, 3})),
        ])
        sim.run()
        assert sim.assigned_machine[0] == 2 and sim.completions[0] == 8.0
        assert sim.assigned_machine[3] == 3 and sim.completions[3] == 5.0
        # the killed placement was retracted: machine 1 holds no work
        assert sim.scheduler.completions == {1: 0.0, 2: 8.0, 3: 5.0}
        assert sim.scheduler.task_counts == {1: 0, 2: 2, 3: 2}


class TestResumePolicy:
    def test_in_flight_task_resumes_with_residual(self):
        # 1 unit of work done before the failure at t=1; recovery at
        # t=3.5 continues the residual 1.0 → completion at 4.5.
        inst = Instance.build(1, releases=[0.0], procs=2.0, machine_sets=[{1}])
        faults = FaultSchedule.build([(1, 1.0, 3.5)])
        result, sim = simulate(inst, faults, policy=RESUME)
        assert result.n_completed == 1
        assert result.n_resumed == 1
        assert result.n_requeued == 0
        assert result.wasted_work == 0.0
        assert sim.completions[0] == pytest.approx(4.5)

    def test_resume_does_not_double_count_busy_time(self):
        inst = Instance.build(1, releases=[0.0], procs=2.0, machine_sets=[{1}])
        faults = FaultSchedule.build([(1, 1.0, 3.5)])
        result, sim = simulate(inst, faults, policy=RESUME)
        # busy time is exactly the processing requirement.
        assert sim.machines[1].busy_time == pytest.approx(2.0)
        assert result.utilization <= 1.0 + 1e-9


class TestParking:
    def test_task_parks_until_first_recovery(self):
        # Whole processing set {1, 2} down at release t=1; machine 2
        # recovers first (t=4) — the parked task must start exactly then.
        inst = Instance.build(
            2, releases=[1.0], procs=1.0, machine_sets=[{1, 2}]
        )
        faults = FaultSchedule.build([(1, 0.5, 6.0), (2, 0.5, 4.0)])
        result, sim = simulate(inst, faults)
        assert result.n_parked == 0  # unparked on recovery
        assert sim.starts[0] == pytest.approx(4.0)
        assert sim.assigned_machine[0] == 2

    def test_task_stays_parked_before_recovery(self):
        # Truncate the run mid-outage: the task is still parked.
        inst = Instance.build(1, releases=[0.0], procs=1.0, machine_sets=[{1}])
        faults = FaultSchedule.build([(1, 0.0, 100.0)])
        sim = Simulator(EFT(1, tiebreak="min"), faults=faults)
        sim.add_instance(inst)
        result = sim.run(until=50.0)
        assert result.n_parked == 1
        assert result.n_completed == 0
        assert 0 not in sim.assigned_machine

    def test_parked_task_completes_after_clipped_recovery(self):
        # The chaos/window model always recovers by the horizon; once it
        # does, the parked task runs to completion.
        inst = Instance.build(1, releases=[0.0], procs=1.0, machine_sets=[{1}])
        faults = FaultSchedule.build([(1, 0.0, 100.0)])
        result, sim = simulate(inst, faults)
        assert result.n_parked == 0
        assert result.n_completed == 1
        assert sim.starts[0] == pytest.approx(100.0)

    def test_release_on_partially_down_set_uses_alive_subset(self):
        inst = Instance.build(
            3, releases=[0.0], procs=1.0, machine_sets=[{1, 2, 3}]
        )
        faults = FaultSchedule.build([(1, 0.0, 5.0), (2, 0.0, 5.0)])
        result, sim = simulate(inst, faults)
        assert sim.assigned_machine[0] == 3
        assert sim.starts[0] == pytest.approx(0.0)


class TestStaleCompletions:
    def test_completion_of_displaced_task_is_invalidated(self):
        # Machine 1 fails mid-task and recovers before the original
        # completion instant; the stale COMPLETE (old epoch) must not
        # mark the task done early.
        inst = Instance.build(1, releases=[0.0], procs=4.0, machine_sets=[{1}])
        faults = FaultSchedule.build([(1, 1.0, 2.0)])
        result, sim = simulate(inst, faults, policy=RESTART)
        assert result.n_completed == 1
        # restarted at recovery t=2 on the same machine, full 4 units again
        assert sim.completions[0] == pytest.approx(6.0)
        assert result.wasted_work == pytest.approx(1.0)


class TestObserverHooks:
    def test_recorder_counters_match_result(self):
        spec = WorkloadSpec(m=4, n=60, lam=2.0, k=2, strategy="overlapping", case="uniform")
        inst = generate_workload(spec, rng=np.random.default_rng(5))
        faults = chaos_schedule(4, 40.0, mtbf=10.0, mttr=3.0, seed=5)
        recorder = SimRecorder()
        result, sim = simulate(inst, faults, obs=recorder)
        snap = recorder.registry.snapshot()
        counters = snap["counters"]
        assert counters["machine_failures"] == sum(1 for _, k, _ in faults.events() if k == "down")
        assert counters.get("tasks_requeued", 0) == result.n_requeued
        assert counters.get("tasks_parked", 0) >= result.n_parked
        assert counters.get("tasks_resumed", 0) == result.n_resumed
        assert counters["tasks_completed"] == result.n_completed

    def test_plain_observer_without_fault_hooks_still_works(self):
        class Minimal:
            events = []

            def on_release(self, sim, task):
                self.events.append("r")

            def on_start(self, sim, task, machine):
                self.events.append("s")

            def on_complete(self, sim, task, machine):
                self.events.append("c")

        inst = Instance.build(2, releases=[0.0, 0.0], procs=1.0, machine_sets=[{1, 2}, {1, 2}])
        faults = FaultSchedule.build([(1, 0.5, 2.0)])
        result, _ = simulate(inst, faults, obs=Minimal())
        assert result.n_completed == 2


@st.composite
def chaos_params(draw):
    return (
        draw(st.integers(0, 10_000)),  # chaos seed
        draw(st.floats(2.0, 20.0)),  # mtbf
        draw(st.floats(0.5, 5.0)),  # mttr
    )


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(inst=restricted_unit_instances(max_m=5, max_n=12), params=chaos_params(),
           policy=st.sampled_from([RESTART, RESUME]))
    def test_fault_invariants(self, inst, params, policy):
        seed, mtbf, mttr = params
        faults = chaos_schedule(inst.m, 30.0, mtbf=mtbf, mttr=mttr, seed=seed)
        result, sim = simulate(inst, faults, policy=policy)
        # No task ever starts on a DOWN machine.
        for tid, start in sim.starts.items():
            machine = sim.assigned_machine[tid]
            assert not faults.down_at(machine, start), (
                f"task {tid} started at {start} on down machine {machine}"
            )
        # Utilisation never exceeds one alive machine-second per second.
        assert result.utilization <= 1.0 + 1e-9
        # Every task is accounted for exactly once.
        assert result.n_completed + result.n_pending + result.n_parked == len(inst.tasks) or (
            # tasks in flight at truncation are neither completed nor pending
            result.n_completed + result.n_pending + result.n_parked <= len(inst.tasks)
        )
        # Completed tasks completed after (or at) their start.
        for tid, done in sim.completions.items():
            assert done >= sim.starts[tid]

    @settings(max_examples=20, deadline=None)
    @given(inst=restricted_unit_instances(max_m=5, max_n=12))
    def test_empty_schedule_equals_no_schedule(self, inst):
        bare, _ = simulate(inst, faults=None)
        empty, _ = simulate(inst, faults=FaultSchedule())
        assert bare.max_flow == empty.max_flow
        assert bare.mean_flow == empty.mean_flow
        assert bare.utilization == empty.utilization
        assert bare.schedule.same_placements(empty.schedule)
