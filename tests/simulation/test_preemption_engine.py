"""Deterministic preemption support in the reference engine.

The PREEMPT machinery exists for the zoo's preemptive policies
(SRPT-PS): one coalesced re-evaluation per machine per instant, strict
inequality to preempt, machine-local residuals, exact busy-time
accounting, and fault interplay (lost progress lands in
``wasted_work``)."""

import pytest

from repro.core import EFT, Instance, Task
from repro.faults import FaultSchedule
from repro.obs import SimRecorder
from repro.schedulers import SRPTPS
from repro.simulation import Simulator


def _inst(m, specs):
    """specs: (tid, release, proc[, machines])"""
    tasks = tuple(
        Task(
            tid=s[0],
            release=float(s[1]),
            proc=float(s[2]),
            machines=frozenset(s[3]) if len(s) > 3 else None,
        )
        for s in specs
    )
    return Instance(m=m, tasks=tasks)


class TestBasicPreemption:
    def test_short_task_preempts_long_one(self):
        # A (proc 5) starts at 0; B (proc 1) lands at 1 and wins
        # (remaining 1 < 4): B runs 1..2, A resumes 2..6.
        inst = _inst(1, [(0, 0, 5), (1, 1, 1)])
        sim = Simulator(SRPTPS(1))
        sim.add_instance(inst)
        res = sim.run()
        assert res.n_preempted == 1
        assert sim.completions == {0: 6.0, 1: 2.0}
        assert sim.starts == {0: 0.0, 1: 1.0}  # first starts only
        assert res.mean_flow == pytest.approx((6.0 + 1.0) / 2)
        assert res.max_flow == 6.0
        # per-machine busy time nets to total service despite the split stint
        assert sim.machines[1].busy_time == pytest.approx(6.0)

    def test_equal_remaining_does_not_preempt(self):
        # At t=1, A's remaining (1) equals B's (1): strict inequality
        # required, so no preemption and FIFO order stands.
        inst = _inst(1, [(0, 0, 2), (1, 1, 1)])
        sim = Simulator(SRPTPS(1))
        sim.add_instance(inst)
        res = sim.run()
        assert res.n_preempted == 0
        assert sim.completions == {0: 2.0, 1: 3.0}

    def test_same_instant_batch_coalesces_to_one_check(self):
        # Three tasks land at t=1 on the busy machine; the single
        # PREEMPT check (after the whole batch) switches to the batch's
        # best, and SRPT order drains the rest.
        inst = _inst(1, [(0, 0, 10), (1, 1, 3), (2, 1, 1), (3, 1, 2)])
        sim = Simulator(SRPTPS(1))
        sim.add_instance(inst)
        res = sim.run()
        # Only the running task was preempted (once): the queue swaps
        # are ordinary starts.
        assert res.n_preempted == 1
        # SRPT at t=1: remainders are A=9, B=3, C=1, D=2 -> C, D, B, A
        assert sim.completions == {2: 2.0, 3: 4.0, 1: 7.0, 0: 16.0}

    def test_non_preemptive_policies_never_preempt(self):
        inst = _inst(2, [(0, 0, 4), (1, 1, 1), (2, 1, 2)])
        sim = Simulator(EFT(2, tiebreak="min"))
        sim.add_instance(inst)
        res = sim.run()
        assert res.n_preempted == 0

    def test_srpt_beats_eft_mean_flow_here(self):
        inst = _inst(1, [(0, 0, 8), (1, 1, 1), (2, 2, 1)])
        flows = []
        for sched in (SRPTPS(1), EFT(1, tiebreak="min")):
            sim = Simulator(sched)
            sim.add_instance(inst)
            flows.append(sim.run().mean_flow)
        srpt_flow, eft_flow = flows
        assert srpt_flow < eft_flow

    def test_dispatch_matches_eft_min(self):
        """SRPT-PS binds tasks to machines exactly as EFT-Min does —
        preemption only reorders within a machine."""
        inst = _inst(
            3,
            [
                (0, 0, 3, {1, 2}),
                (1, 0, 1, {2, 3}),
                (2, 1, 4, {1, 3}),
                (3, 1.5, 2, {1, 2, 3}),
                (4, 2, 1, {1}),
            ],
        )
        srpt = Simulator(SRPTPS(3))
        srpt.add_instance(inst)
        srpt.run()
        eft = Simulator(EFT(3, tiebreak="min"))
        eft.add_instance(inst)
        eft.run()
        assert srpt.assigned_machine == eft.assigned_machine
        # analytic books stay exact: per-machine completion horizons agree
        assert srpt.scheduler.completions == eft.scheduler.completions


class TestContractEnforcement:
    def test_preemptive_without_key_is_type_error(self):
        class Broken(EFT):
            preemptive = True

        with pytest.raises(TypeError, match="preempt_key"):
            Simulator(Broken(2))


class TestObservability:
    def test_preempt_counters_in_recorder(self):
        inst = _inst(1, [(0, 0, 5), (1, 1, 1)])
        obs = SimRecorder()
        sim = Simulator(SRPTPS(1), obs=obs)
        sim.add_instance(inst)
        res = sim.run()
        assert res.n_preempted == 1
        assert obs.registry.counter("tasks_preempted").value == 1
        # the preempted task came back: one resume-start (not a fresh start)
        assert obs.registry.counter("preempt_resumes").value == 1
        assert obs.registry.counter("tasks_started").value == 2

    def test_non_preemptive_snapshot_has_no_preempt_keys(self):
        from repro.obs.snapshot import metrics_snapshot, metrics_to_json

        inst = _inst(2, [(0, 0, 2), (1, 0.5, 1)])
        obs = SimRecorder()
        sim = Simulator(EFT(2), obs=obs)
        sim.add_instance(inst)
        sim.run()
        text = metrics_to_json(metrics_snapshot(obs.registry))
        assert "preempt" not in text


class TestFaultInterplay:
    def test_restart_loses_preempted_stint_too(self):
        # A runs 0..1 (preempted, 1 credited), B runs 1..2, A resumes
        # 2..; machine 1 dies at 3 (A has 1 new unit done).  RESTART
        # wastes both stints: 1 (credited) + 1 (current) = 2.
        inst = _inst(1, [(0, 0, 5), (1, 1, 1)])
        sim = Simulator(
            SRPTPS(1),
            faults=FaultSchedule.build([(1, 3.0, 4.0)]),
            fault_policy="restart",
        )
        sim.add_instance(inst)
        res = sim.run()
        assert res.n_preempted == 1
        assert res.wasted_work == pytest.approx(2.0)
        # A restarts from scratch at recovery: 4 + 5
        assert sim.completions[0] == pytest.approx(9.0)
        assert sim.completions[1] == pytest.approx(2.0)

    def test_queued_preempted_task_displaced_by_failure(self):
        # A preempted and *queued* (not running) when its machine dies:
        # the residual cannot migrate, so its credited progress is
        # wasted and it restarts elsewhere from scratch.
        inst = _inst(
            2,
            [
                (0, 0, 5, {1, 2}),  # A -> machine 1 (tie set {1,2}, min)
                (1, 1, 1, {1, 2}),  # B -> machine 1 (finish 6 < 11), preempts A
                (2, 0, 10, {2}),    # X keeps machine 2 busy until 10
            ],
        )
        # At t=1: A preempted (credited 1, remaining 4), B runs 1..1.5.
        # Machine 1 dies at 1.5: B (running) restarts, A (queued,
        # preempted) is displaced — both with total progress lost,
        # both re-dispatched to machine 2.
        sim = Simulator(
            SRPTPS(2),
            faults=FaultSchedule.build([(1, 1.5, 30.0)]),
            fault_policy="restart",
        )
        sim.add_instance(inst)
        res = sim.run()
        assert res.n_preempted == 1
        # B's 0.5 running + A's 1.0 credited stint are both wasted
        assert res.wasted_work == pytest.approx(1.5)
        assert res.n_requeued == 2
        assert sim.assigned_machine[0] == 2
        assert sim.assigned_machine[1] == 2
        # behind X (done at 10), SRPT order restarts B then A from scratch
        assert sim.completions == {2: 10.0, 1: 11.0, 0: 16.0}

    def test_flows_use_engine_completions_under_preemption(self):
        # result() must not reconstruct flows from start+proc on a
        # preemptive run (starts record *first* starts).
        inst = _inst(1, [(0, 0, 5), (1, 1, 1)])
        sim = Simulator(SRPTPS(1))
        sim.add_instance(inst)
        res = sim.run()
        # start+proc would claim A finished at 5; it finished at 6.
        assert res.max_flow == 6.0
        assert res.makespan == 6.0
        assert res.utilization == pytest.approx(1.0)
