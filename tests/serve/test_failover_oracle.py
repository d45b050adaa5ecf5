"""Cross-layer outage oracle: the Simulator and the serve fleet re-place
displaced and parked work identically.

Both layers call the one failure rule of :mod:`repro.core.failover`,
so the same stream under the same outage must give the same
``(machine, start, completion)`` for every task they re-place, for
every registry policy:

* **Simulator side** — ``Simulator(faults, fault_policy="resume")``;
  each re-placement is read at its decision instant (the observer's
  ``on_requeue``/``on_unpark`` hook) as the machine, the start
  ``now + w_j`` and the completion ``start + charge``.  For the
  non-preemptive policies that is also what the engine then runs.
* **Serve side** — ``ShardRouter(ShardPlan.single(4))``; a machine
  going down is ``kill`` followed by ``redispatch`` of the dead
  machine's unstarted queue in FIFO order at the same instant, a
  recovery is ``revive``.  For run-to-completion policies that queue
  must be exactly the engine's run queue at the failure.  The serve
  tier does not preempt, so under SRPT-PS a task the engine preempted
  back into the dead machine's queue is one the serve books count as
  started; there the serve side re-places what the engine displaced,
  in the engine's queue order.  The engine's waiting work counts such
  a task at its residual, as the serve books do.

Releases and sizes are multiples of 1/8 (and Speed-EFT's speeds and
NC-Setup's setup are powers of two), so both layers' arithmetic is
exact and no tie is decided by float rounding.  Keys are ``tid % 3``,
so NC-Setup pays its setup on re-placement.

Two scenarios: one machine down mid-stream (displacement), and two
machines down from the start so that sets inside them park, then revive
one after the other (the unpark path).  Both layers book every
re-placement into the scheduler's one book (horizon and live entries)
and retract the placement it replaces, so every fresh release — the
ones after a re-placement included, up to the downed machine's
revival — is decided identically too: ``(machine, start)`` of each
dispatched release is compared.
"""

import random

import pytest

from repro.core.failover import earliest_finish, split_parked
from repro.core.task import Task
from repro.faults import RESUME, FaultSchedule
from repro.schedulers import get_scheduler
from repro.schedulers.registry import list_schedulers
from repro.serve import Dispatcher, Journal, ShardPlan, ShardRouter, task_to_wire
from repro.serve.dispatcher import DISPATCHED, PARKED, REQUEUED
from repro.simulation import Simulator

M = 4
SETS = [
    frozenset(s)
    for s in (
        {1, 2}, {2, 3}, {3, 4}, {4, 1}, {1, 3}, {2, 4},
        {1}, {2}, {3}, {4}, {1, 2, 3}, {1, 2, 3, 4},
    )
]
POLICIES = [p["name"] for p in list_schedulers()]
NON_PREEMPTIVE = [p for p in POLICIES if not get_scheduler(p, M).preemptive]
SEEDS = range(8)
N = 48


def _stream(seed: int) -> list[Task]:
    rng = random.Random(seed)
    clock, tasks = 0.0, []
    for tid in range(N):
        clock += rng.choice([0, 1, 2, 4]) / 8
        tasks.append(
            Task(
                tid=tid, release=clock, proc=rng.randint(1, 24) / 8,
                machines=rng.choice(SETS), key=tid % 3,
            )
        )
    return tasks


class _Replacements:
    """Simulator observer: every re-placement at its decision instant,
    and every park, in order."""

    def __init__(self) -> None:
        self.placed: list[tuple[int, int, float, float]] = []
        self.parked: list[int] = []
        self.times: list[float] = []
        #: the run queue of each failing machine, keyed (time, machine)
        self.queues: dict[tuple[float, int], list[int]] = {}

    def on_release(self, sim, task) -> None:
        pass

    def on_start(self, sim, task, machine) -> None:
        pass

    def on_complete(self, sim, task, machine) -> None:
        pass

    def on_machine_down(self, sim, machine) -> None:
        self.queues[sim.now, machine] = [t.tid for t in sim.machines[machine].queue]

    def on_park(self, sim, task) -> None:
        self.parked.append(task.tid)

    def on_requeue(self, sim, task, machine) -> None:
        # The task is queued already, so the profile includes it.
        end = sim.now + sim.waiting_profile()[machine - 1]
        start = end - sim.scheduler.service_of(task.tid, task.proc)
        self.placed.append((task.tid, machine, start, end))
        self.times.append(sim.now)

    on_unpark = on_requeue


def _simulate(policy, seed, tasks, outages):
    rec = _Replacements()
    sim = Simulator(
        get_scheduler(policy, M, seed=seed), obs=rec,
        faults=FaultSchedule.build(outages), fault_policy=RESUME,
    )
    sim.add_tasks(tasks)
    sim.run()
    return sim, rec


def _serve(policy, seed, tasks, outages, engine_queues):
    """Drive the one-shard fleet through the same stream and
    transitions, in the engine's same-instant order (recoveries, then
    failures, then releases); an outage ending at ``None`` never
    recovers."""
    router = ShardRouter(ShardPlan.single(M), scheduler=policy, seed=seed)
    preemptive = router.dispatchers[0].scheduler.preemptive
    service_of = router.dispatchers[0].scheduler.service_of
    events = sorted(
        [(s, 1, "down", j) for j, s, _ in outages]
        + [(e, 0, "up", j) for j, _, e in outages if e is not None]
        + [(t.release, 2, "release", t) for t in tasks],
        key=lambda ev: (ev[0], ev[1]),
    )
    placed, parked, fresh = [], [], []

    def note(decisions):
        for d in decisions:
            if d.status == PARKED:
                parked.append(d.task.tid)
            else:
                assert d.status == REQUEUED
                end = d.start + service_of(d.task.tid, d.task.proc)
                placed.append((d.task.tid, d.machine, d.start, end))

    for now, _, kind, what in events:
        if kind == "up":
            note(router.revive(what, now))
        elif kind == "down":
            router.kill(what)
            queue = [
                tid
                for start, tid in sorted(
                    (start, tid)
                    for tid, (machine, start) in router.placements.items()
                    if machine == what and start > now
                )
            ]
            if preemptive:
                queue = engine_queues[now, what]
            else:
                assert queue == engine_queues[now, what]
            note(router.redispatch([router.task(tid) for tid in queue], now))
        else:
            d = router.submit(what)
            if d.status == PARKED:
                parked.append(what.tid)
            else:
                assert d.status == DISPATCHED
                fresh.append((what.tid, d.machine, d.start))
    return placed, parked, fresh, router


def _check_fresh(sim, fresh):
    """Every fresh release the engine's scheduler dispatched, at the
    serve tier's ``(machine, start)``."""
    booked = sim.scheduler.schedule()
    assert sim.scheduler.n_dispatched == len(fresh)
    assert [(tid, booked.machine_of(tid), booked.start_of(tid)) for tid, _, _ in fresh] == fresh


def _check_runs_as_placed(policy, sim, placed):
    """For run-to-completion policies the engine then runs each
    re-placed task exactly as decided."""
    if get_scheduler(policy, M).preemptive:
        return
    for tid, machine, start, end in placed:
        assert sim.assigned_machine[tid] == machine
        assert sim.starts[tid] == start
        assert sim.completions.get(tid, end) == end


@pytest.mark.parametrize("policy", POLICIES)
def test_displacement_matches_across_layers(policy):
    """One machine down mid-stream, never back: the displaced queue
    lands identically in both layers, and so does every fresh release
    after it."""
    displaced = 0
    for seed in SEEDS:
        tasks = _stream(seed)
        down = M - seed % M
        t_down = tasks[N // 2].release
        # The recovery lies past the stream; only what happens before it
        # is compared (the layers model the revived machine differently).
        outages = [(down, t_down, 1e6)]
        sim, rec = _simulate(policy, seed, tasks, outages)
        cut = sum(1 for t in rec.times if t < 1e6)
        placed, parked, fresh, _ = _serve(policy, seed, tasks, [(down, t_down, None)], rec.queues)
        assert rec.placed[:cut] == placed, f"seed {seed}"
        assert rec.parked == parked, f"seed {seed}"
        _check_fresh(sim, fresh)
        _check_runs_as_placed(policy, sim, placed)
        displaced += len(placed)
    assert displaced > 0


@pytest.mark.parametrize("policy", POLICIES)
def test_park_and_unpark_match_across_layers(policy):
    """Machines 1 and 2 down from the start: tasks inside {1, 2} park;
    machine 1 recovers, then machine 2, and the lot drains onto each in
    park order identically in both layers."""
    onto: set[int] = set()
    for seed in SEEDS:
        tasks = _stream(seed)
        t1, t2 = tasks[N // 3].release, tasks[2 * N // 3].release + 0.125
        outages = [(1, 0.0, t1), (2, 0.0, t2)]
        sim, rec = _simulate(policy, seed, tasks, outages)
        placed, parked, fresh, _ = _serve(policy, seed, tasks, outages, rec.queues)
        assert rec.parked == parked, f"seed {seed}"
        assert rec.placed == placed, f"seed {seed}"
        _check_fresh(sim, fresh)
        _check_runs_as_placed(policy, sim, placed)
        onto |= {machine for _, machine, _, _ in placed}
    assert onto == {1, 2}


@pytest.mark.parametrize("policy", NON_PREEMPTIVE)
def test_dead_machine_horizon_matches_after_the_drain(policy):
    """Both layers retract a displaced queue tail first, so right after
    the drain the dead machine's horizon is the same: the end of its
    in-flight task (or the failure instant), with no hole left by a
    task retracted mid-queue."""
    for seed in SEEDS:
        tasks = _stream(seed)
        down = M - seed % M
        t_down = tasks[N // 2].release
        rec = _Replacements()
        sim = Simulator(
            get_scheduler(policy, M, seed=seed), obs=rec,
            faults=FaultSchedule.build([(down, t_down, 1e6)]), fault_policy=RESUME,
        )
        sim.add_tasks(tasks)
        sim.run(until=t_down)
        head = [t for t in tasks if t.release <= t_down]
        *_, router = _serve(policy, seed, head, [(down, t_down, None)], rec.queues)
        served = router.dispatchers[0].scheduler.completions[down]
        assert served == sim.scheduler.completions[down], f"seed {seed}"


def test_parked_redispatch_leaves_nothing_booked(tmp_path):
    """A re-placement that parks unbooks the task: it is in the lot
    only — not in the placements, the schedule, the depth or the
    horizon — and a recovered service owes it no service."""
    router = ShardRouter(ShardPlan.single(2), "eft-min")
    journal = Journal(tmp_path, fsync="never")
    tasks = [Task(tid=tid, release=0.0, proc=1.0, machines=frozenset({1})) for tid in range(3)]
    for task in tasks:
        journal.append("submit", {"task": task_to_wire(task)})
        router.submit(task)
    journal.append("kill", {"machine": 1, "now": 0.5})
    router.kill(1)
    journal.append("redispatch", {"tids": [2], "now": 0.5})
    [decision] = router.redispatch([router.task(2)], 0.5)
    journal.close()
    assert decision.status == PARKED and router.parked == [tasks[2]]
    assert 2 not in router.placements and router.task(2) is None
    assert [a.task.tid for a in router.schedule()] == [0, 1]
    shard = router.dispatchers[0]
    assert shard.depth(1, 0.5) == 2
    assert shard.scheduler.completions[1] == 2.0
    recovery = Dispatcher.recover(
        Journal(tmp_path, fsync="never"), into=ShardRouter(ShardPlan.single(2), "eft-min")
    )
    assert recovery.dispatcher.state_dict() == router.state_dict()
    assert recovery.pending() == [(0, 1), (1, 1)]


def test_setup_bites_on_replacement():
    """The NC-Setup streams re-place onto machines cold for the key, so
    the oracle above compares charges that differ from ``proc``."""
    paid = 0
    for seed in SEEDS:
        tasks = _stream(seed)
        outages = [(M - seed % M, tasks[N // 2].release, 1e6)]
        _, rec = _simulate("nc-setup", seed, tasks, outages)
        procs = {t.tid: t.proc for t in tasks}
        paid += sum(1 for tid, _, start, end in rec.placed if end - start != procs[tid])
    assert paid > 0


class TestRule:
    def test_waiting_work_breaks_rounding_ties(self):
        """``0.1 + 0.2`` and ``0.3`` differ, but each plus 1.0 rounds
        to the same float: the ``w_j`` term keeps the least-waiting-work
        choice (machine 2) where a ``(w + s, j)`` key would pick 1."""
        waiting = {1: 0.1 + 0.2, 2: 0.3}
        assert waiting[1] + 1.0 == waiting[2] + 1.0 and waiting[1] > waiting[2]
        assert min((w + 1.0, j) for j, w in waiting.items())[1] == 1
        assert earliest_finish([1, 2], waiting.get, lambda j: 1.0) == 2

    def test_earliest_finish_beats_least_waiting_work(self):
        # machine 1: w=1, s=4 (finish 5); machine 2: w=2, s=1 (finish 3)
        service = {1: 4.0, 2: 1.0}
        assert earliest_finish([1, 2], {1: 1.0, 2: 2.0}.get, service.get) == 2

    def test_index_breaks_exact_ties(self):
        assert earliest_finish([3, 2, 4], lambda j: 1.0, lambda j: 1.0) == 2

    def test_no_candidate_rejected(self):
        with pytest.raises(ValueError):
            earliest_finish([], lambda j: 0.0, lambda j: 0.0)

    def test_split_parked_keeps_park_order(self):
        lot = [
            Task(tid=i, release=0.0, proc=1.0, machines=frozenset(s))
            for i, s in enumerate(({1}, {2}, {1, 2}, {2}, {1}))
        ]
        ready, still = split_parked(lot, {1}, 2)
        assert [t.tid for t in ready] == [0, 2, 4]
        assert [t.tid for t in still] == [1, 3]
