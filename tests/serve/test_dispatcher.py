"""Unit tests for the virtual-clocked dispatch decision core."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EFT, Instance, Task, eft_schedule
from repro.schedulers import get_scheduler, list_schedulers
from repro.serve import DISPATCHED, PARKED, REQUEUED, SHED, Dispatcher, ShardPlan, ShardRouter
from repro.simulation.engine import Simulator
from repro.simulation.workload import WorkloadSpec, generate_workload


def _random_instance(seed: int, m: int = 5, n: int = 60) -> Instance:
    spec = WorkloadSpec(m=m, n=n, lam=3.0, k=2, strategy="overlapping", case="uniform")
    return generate_workload(spec, rng=np.random.default_rng(seed))


@st.composite
def small_instances(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=0, max_value=12))
    releases = sorted(
        draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False)) for _ in range(n)
    )
    tasks = []
    for i, r in enumerate(releases):
        proc = draw(st.floats(min_value=0.1, max_value=5.0, allow_nan=False))
        machines = draw(
            st.one_of(
                st.none(),
                st.frozensets(st.integers(min_value=1, max_value=m), min_size=1),
            )
        )
        tasks.append(Task(tid=i, release=r, proc=proc, machines=machines))
    return Instance(m=m, tasks=tuple(tasks))


class TestShadowEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_eft_schedule(self, seed):
        """Fault-free dispatcher placements == the analytic EFT run."""
        inst = _random_instance(seed)
        dispatcher = Dispatcher(EFT(inst.m, tiebreak="min"))
        for task in inst:
            decision = dispatcher.submit(task)
            assert decision.status == DISPATCHED
        assert dispatcher.schedule().same_placements(eft_schedule(inst, tiebreak="min"))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_simulator(self, seed):
        """Dispatcher and discrete-event engine take identical decisions."""
        inst = _random_instance(seed)
        dispatcher = Dispatcher(EFT(inst.m, tiebreak="min"))
        for task in inst:
            dispatcher.submit(task)
        sim = Simulator(EFT(inst.m, tiebreak="min"))
        sim.add_instance(inst)
        result = sim.run()
        assert dispatcher.schedule().same_placements(result.schedule)

    @settings(max_examples=60, deadline=None)
    @given(inst=small_instances())
    def test_matches_eft_schedule_property(self, inst):
        dispatcher = Dispatcher(EFT(inst.m, tiebreak="min"))
        for task in inst:
            dispatcher.submit(task)
        assert dispatcher.schedule().same_placements(eft_schedule(inst, tiebreak="min"))

    def test_randomised_tiebreak_reproducible(self):
        inst = _random_instance(7)
        runs = []
        for _ in range(2):
            d = Dispatcher(EFT(inst.m, tiebreak="rand", rng=42))
            for task in inst:
                d.submit(task)
            runs.append(d.placements)
        assert runs[0] == runs[1]


class TestAnalyticState:
    def test_depth_counts_uncompleted(self):
        d = Dispatcher(EFT(1, tiebreak="min"))
        d.submit(Task(tid=0, release=0.0, proc=1.0))
        d.submit(Task(tid=1, release=0.0, proc=1.0))
        assert d.depth(1, 0.0) == 2
        assert d.depth(1, 1.0) == 1  # half-open: completion at t has left
        assert d.depth(1, 2.0) == 0

    def test_waiting_work(self):
        d = Dispatcher(EFT(1, tiebreak="min"))
        d.submit(Task(tid=0, release=0.0, proc=3.0))
        assert d.waiting_work(1, 1.0) == pytest.approx(2.0)
        assert d.waiting_work(1, 5.0) == 0.0

    def test_est_flow_is_exact_for_eft(self):
        inst = _random_instance(5)
        d = Dispatcher(EFT(inst.m, tiebreak="min"))
        decisions = [d.submit(t) for t in inst]
        sched = eft_schedule(inst, tiebreak="min")
        for dec in decisions:
            assert dec.est_flow == pytest.approx(sched.flow_of(dec.task.tid))


class TestServiceTime:
    """The serve books use the policy's realised service time on the
    chosen machine (speed, setup), exactly as the simulator does."""

    @pytest.mark.parametrize(
        "policy", [info["name"] for info in list_schedulers() if not info["preemptive"]]
    )
    def test_est_flow_matches_simulator_flow(self, policy):
        inst = _random_instance(3, m=4, n=40)
        dispatcher = Dispatcher(get_scheduler(policy, inst.m, seed=5))
        decisions = [dispatcher.submit(task) for task in inst]
        sim = Simulator(get_scheduler(policy, inst.m, seed=5))
        sim.add_instance(inst)
        sched = sim.run().schedule
        for dec in decisions:
            tid = dec.task.tid
            assert (dec.machine, dec.start) == (sched.machine_of(tid), sched.start_of(tid))
            assert dec.est_flow == pytest.approx(sched.flow_of(dec.task.tid)), dec.task.tid

    def test_requeue_books_the_charge_everywhere(self):
        """A re-placed task is charged the policy's ``charge`` on its new
        machine — on the horizon, in ``est_flow``, in its depth entry and
        in the service time the live worker reads — so withdrawing it
        clears its depth and unwinds the tail exactly."""
        fleet = ShardRouter(ShardPlan.single(2), "nc-setup")
        shard = fleet.dispatchers[0]
        task = Task(tid=0, release=0.0, proc=1.0, machines=frozenset({1, 2}))
        first = fleet.submit(task)
        assert shard.scheduler.service_of(0, task.proc) > task.proc  # cold setup
        fleet.kill(first.machine)
        [moved] = fleet.redispatch([task], now=0.5)
        # machine 2 is cold for the key as well: proc 1.0 + setup 1.0
        assert (moved.machine, moved.start, moved.est_flow) == (2, 0.5, 2.5)
        assert shard.scheduler.completions[2] == 2.5
        assert shard.scheduler.service_of(0, task.proc) == 2.0
        assert shard.depth(2, 2.4) == 1
        assert shard.withdraw(0, now=0.4) == task
        assert shard.depth(2, 0.4) == 0
        assert shard.scheduler.completions[2] == 0.5

    def test_requeue_onto_warm_machine_drops_the_old_charge(self):
        fleet = ShardRouter(ShardPlan.single(2), "nc-setup")
        shard = fleet.dispatchers[0]
        fleet.submit(Task(tid=0, release=0.0, proc=1.0, machines=frozenset({2})))  # warms 2
        task = Task(tid=1, release=0.0, proc=1.0, machines=frozenset({1, 2}))
        first = fleet.submit(task)
        assert first.machine == 1 and shard.scheduler.service_of(1, 1.0) == 2.0
        fleet.kill(1)
        [moved] = fleet.redispatch([task], now=0.5)
        assert (moved.machine, moved.start, moved.est_flow) == (2, 2.0, 3.0)
        assert shard.scheduler.service_of(1, task.proc) == task.proc

    def test_withdrawn_speed_tail_leaves_no_hole(self):
        """Withdrawing the tail of a Speed-EFT machine unwinds its
        horizon to the tail's start, as it does for EFT: the next
        commit there starts at the withdrawn start."""
        d = Dispatcher(get_scheduler("speed-eft", 4))  # machine 1 runs at speed 4
        first = d.submit(Task(tid=0, release=0.0, proc=4.0, machines=frozenset({1})))
        tail = d.submit(Task(tid=1, release=0.0, proc=4.0, machines=frozenset({1})))
        assert (first.start, tail.start, d.scheduler.completions[1]) == (0.0, 1.0, 2.0)
        assert d.withdraw(1, now=0.5) is not None
        assert d.scheduler.completions[1] == 1.0
        moved = Task(tid=2, release=0.5, proc=4.0, machines=frozenset({1}))
        assert d.commit(moved, 1, 0.5, "failure").start == tail.start


def _fleet(m: int, **kwargs) -> ShardRouter:
    """The one-shard fleet: failure placement, parking and shedding
    live on the router, over one dispatcher's books."""
    return ShardRouter(ShardPlan.single(m), EFT(m, tiebreak="min"), **kwargs)


class TestFaults:
    def test_unavailable_parks_then_unparks_on_revive(self):
        fleet = _fleet(2)
        fleet.kill(1)
        task = Task(tid=0, release=0.0, proc=1.0, machines=frozenset({1}))
        assert fleet.submit(task).status == PARKED
        assert fleet.parked == [task]
        unparked = fleet.revive(1, now=2.0)
        assert [u.status for u in unparked] == [REQUEUED]
        assert fleet.parked == []
        assert fleet.placements[0] == (1, 2.0)

    def test_unavailable_shed_mode(self):
        fleet = _fleet(2, on_unavailable="shed")
        fleet.kill(2)
        decision = fleet.submit(Task(tid=0, release=0.0, proc=1.0, machines=frozenset({2})))
        assert decision.status == SHED
        assert decision.reason == "unavailable"

    def test_submit_declines_without_an_alive_machine(self):
        d = Dispatcher(EFT(2, tiebreak="min"))
        d.kill(1)
        before = d.state_dict()
        assert d.submit(Task(tid=0, release=0.0, proc=1.0, machines=frozenset({1}))) is None
        assert d.state_dict() == before

    def test_degraded_dispatch_restricts_to_alive(self):
        d = Dispatcher(EFT(3, tiebreak="min"))
        d.kill(1)
        decision = d.submit(Task(tid=0, release=0.0, proc=1.0, machines=frozenset({1, 2})))
        assert decision.status == DISPATCHED
        assert decision.machine == 2

    def test_redispatch_least_waiting_work_smallest_index(self):
        fleet = _fleet(3)
        # Load machine 1 with 2 units, machine 2 with 1, machine 3 with 1.
        fleet.submit(Task(tid=0, release=0.0, proc=2.0, machines=frozenset({1})))
        fleet.submit(Task(tid=1, release=0.0, proc=1.0, machines=frozenset({2})))
        fleet.submit(Task(tid=2, release=0.0, proc=1.0, machines=frozenset({3})))
        moved = Task(tid=3, release=0.0, proc=1.0)
        [decision] = fleet.redispatch([moved], now=0.0)
        # Machines 2 and 3 tie on waiting work 1.0: smallest index wins.
        assert decision.status == REQUEUED
        assert decision.machine == 2
        assert decision.start == pytest.approx(1.0)
        # The scheduler's books absorbed the re-placement.
        assert fleet.dispatchers[0].scheduler.completions[2] == pytest.approx(2.0)

    def test_kill_revive_idempotent(self):
        d = Dispatcher(EFT(2, tiebreak="min"))
        d.kill(1)
        d.kill(1)
        assert d.alive == {2}
        d.revive(2)  # already alive
        assert d.alive == {2}
        d.revive(1)
        assert d.alive == {1, 2}
        fleet = _fleet(2)
        assert fleet.revive(2) == []

    def test_invalid_machine_rejected(self):
        d = Dispatcher(EFT(2, tiebreak="min"))
        with pytest.raises(ValueError):
            d.kill(0)
        with pytest.raises(ValueError):
            d.revive(3)

    def test_invalid_on_unavailable_rejected(self):
        with pytest.raises(ValueError):
            _fleet(2, on_unavailable="explode")


def _restored(live: Dispatcher, policy: str, m: int, seed: int = 0) -> Dispatcher:
    """A fresh dispatcher loaded from ``live``'s snapshot, through JSON
    as a journal snapshot stores it."""
    restored = Dispatcher(get_scheduler(policy, m, seed=seed))
    restored.load_state_dict(json.loads(json.dumps(live.state_dict())))
    return restored


class TestPolicySnapshot:
    """A snapshot restored mid-stream decides exactly like the live
    dispatcher it was taken from (recovered ≡ uninterrupted), including
    the policy's own state: outstanding counts, warm sets, EWMAs."""

    def test_nc_setup_keeps_warm_sets(self):
        live = Dispatcher(get_scheduler("nc-setup", 2))
        live.submit(Task(tid=0, release=0.0, proc=1.0, machines=frozenset({1}), key=7))
        live.submit(Task(tid=1, release=0.0, proc=1.0, machines=frozenset({2}), key=8))
        restored = _restored(live, "nc-setup", 2)
        nxt = Task(tid=2, release=5.0, proc=1.0, machines=frozenset({1, 2}), key=8)
        assert live.submit(nxt).machine == 2  # warm for key 8
        assert restored.submit(nxt).machine == 2

    @pytest.mark.parametrize("policy", [info["name"] for info in list_schedulers()])
    def test_restored_mid_stream_matches_live(self, policy):
        m, rng = 5, np.random.default_rng(11)
        tasks, release = [], 0.0
        for tid in range(90):
            release += float(rng.exponential(0.3))
            machines = frozenset(int(j) for j in rng.choice(m, size=2, replace=False) + 1)
            key = None if tid % 7 == 0 else int(rng.integers(0, 4))
            tasks.append(
                Task(tid=tid, release=release, proc=float(rng.exponential(1.0)),
                     machines=machines, key=key)
            )
        live = Dispatcher(get_scheduler(policy, m, seed=3))
        for task in tasks[:45]:
            live.submit(task)
        # a withdrawal before the snapshot: the book carries the retraction
        now = tasks[44].release
        queued = sorted(tid for tid, (_, start) in live.placements.items() if start > now)
        for tid in queued[-1:]:  # Speed-EFT's fast machines leave no queue here
            assert live.withdraw(tid, now) is not None
        restored = _restored(live, policy, m, seed=3)
        assert [restored.depth(j, now) for j in range(1, m + 1)] == [
            live.depth(j, now) for j in range(1, m + 1)
        ]
        for task in tasks[45:]:
            a, b = live.submit(task), restored.submit(task)
            assert (a.status, a.machine, a.start) == (b.status, b.machine, b.start)
        assert restored.state_dict() == live.state_dict()

    def test_snapshot_without_policy_state_still_loads(self):
        live = Dispatcher(get_scheduler("nc-setup", 2))
        live.submit(Task(tid=0, release=0.0, proc=1.0, key=7))
        state = live.state_dict()
        del state["scheduler"]["policy"]  # a snapshot from before the hook
        restored = Dispatcher(get_scheduler("nc-setup", 2))
        restored.load_state_dict(state)
        assert restored.placements == live.placements
