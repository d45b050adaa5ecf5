"""Same-instant firing order across ``run(until=)`` cutoffs.

The reference loop fires every event by ``(time, kind priority,
insertion)``: releases fed before a run take their insertion index when
that run starts (in release order, feed order at an instant), releases
injected by an ``at()`` callback take theirs when the callback fires,
and neither is renumbered by a later run.  The property below drives a
one-machine :class:`Simulator` through fed releases, injecting
callbacks, cutoffs with feeds in between, completions, outages and
preemption checks, all on a dyadic grid so instants coincide, and
compares the release order its observer sees, every start and every
completion with :class:`_Model`: the same one-machine semantics over a
plain list sorted by ``(time, priority, insertion)``, in the idiom of
``test_events.py::test_pop_order_is_time_priority_insertion``.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import EFT, Instance, Task
from repro.faults import FaultSchedule
from repro.schedulers.srpt import SRPTPS
from repro.simulation import EventKind, Simulator
from tests.conftest import examples

# firing order at one instant, lower first (the pinned kind order)
_PRIORITY = {
    EventKind.MACHINE_UP: 0,
    EventKind.COMPLETE: 1,
    EventKind.MACHINE_DOWN: 2,
    EventKind.RELEASE: 3,
    EventKind.PREEMPT: 4,
    EventKind.OBSERVE: 5,
}


class _Model:
    """The engine's one-machine semantics, events kept in a plain list
    and fired by a sort on ``(time, priority, insertion)``."""

    def __init__(self, preemptive: bool, policy: str, faults: FaultSchedule | None) -> None:
        self.preemptive, self.policy = preemptive, policy
        self.pending: list[tuple] = []
        self.inserted = 0
        self.feed: list[Task] = []
        self.now = 0.0
        self.alive, self.current, self.paused = True, None, None
        self.busy_until = self.paused_left = 0.0
        self.epoch = 0
        self.queue: list[Task] = []
        self.parked: list[Task] = []
        self.remaining: dict[int, float] = {}
        self.preempt_pending = False
        self.released: list[int] = []
        self.starts: dict[int, float] = {}
        self.completions: dict[int, float] = {}
        for time_, kind, _ in faults.events() if faults is not None else ():
            self.push(time_, EventKind.MACHINE_DOWN if kind == "down" else EventKind.MACHINE_UP)

    def push(self, time_: float, kind: EventKind, payload=None) -> None:
        self.pending.append((time_, _PRIORITY[kind], self.inserted, kind, payload))
        self.inserted += 1

    def run(self, until: float | None) -> None:
        for task in sorted(self.feed, key=lambda t: t.release):
            self.push(task.release, EventKind.RELEASE, task)
        self.feed = []
        while self.pending:
            self.pending.sort()
            if until is not None and self.pending[0][0] > until:
                break
            time_, _, _, kind, payload = self.pending.pop(0)
            self.now = time_
            getattr(self, f"_{kind.name.lower()}")(payload)
        if until is not None and self.now < until:
            self.now = until

    def _left(self, task: Task) -> float:
        return self.remaining.get(task.tid, task.proc)

    @staticmethod
    def _key(task: Task, left: float) -> tuple:
        return (left, task.release, task.tid)  # SRPT-PS's preempt_key

    def _try_start(self) -> None:
        if not (self.alive and self.current is None and self.paused is None and self.queue):
            return
        if self.busy_until > self.now:
            return
        if self.preemptive:
            task = min(self.queue, key=lambda t: self._key(t, self._left(t)))
            self.queue.remove(task)
        else:
            task = self.queue.pop(0)
        self.current = task
        self.busy_until = self.now + self.remaining.pop(task.tid, task.proc)
        self.starts.setdefault(task.tid, self.now)
        self.push(self.busy_until, EventKind.COMPLETE, (task, self.epoch))

    def _release(self, task: Task) -> None:
        self.released.append(task.tid)
        if not self.alive:
            self.parked.append(task)
            return
        self.queue.append(task)
        self._try_start()
        if self.preemptive and self.current is not None and self.queue and not self.preempt_pending:
            self.preempt_pending = True
            self.push(self.now, EventKind.PREEMPT)

    def _complete(self, payload) -> None:
        task, epoch = payload
        if epoch != self.epoch:
            return
        self.current = None
        self.completions[task.tid] = self.now
        self._try_start()

    def _preempt(self, _) -> None:
        self.preempt_pending = False
        cur = self.current
        if not self.alive or cur is None or not self.queue:
            return
        cur_left = self.busy_until - self.now
        if min(self._key(t, self._left(t)) for t in self.queue) >= self._key(cur, cur_left):
            return
        self.remaining[cur.tid] = cur_left
        self.current, self.busy_until = None, self.now
        self.epoch += 1
        self.queue.append(cur)
        self._try_start()

    def _machine_down(self, _) -> None:
        self.alive = False
        self.epoch += 1
        displaced = []
        if self.current is not None:
            task, left = self.current, self.busy_until - self.now
            self.current = None
            if self.policy == "resume":
                self.paused, self.paused_left = task, left
            else:
                self.remaining.pop(task.tid, None)
                self.starts.pop(task.tid, None)
                displaced.append(task)
        self.busy_until = self.now
        displaced += self.queue
        self.queue = []
        for task in displaced:
            if self.remaining.pop(task.tid, None) is not None:
                self.starts.pop(task.tid, None)
        self.parked += displaced  # one machine: nowhere else to go

    def _machine_up(self, _) -> None:
        self.alive = True
        if self.paused is not None:
            self.current, self.paused = self.paused, None
            self.busy_until = self.now + self.paused_left
            self.push(self.busy_until, EventKind.COMPLETE, (self.current, self.epoch))
        ready, self.parked = self.parked, []
        for task in ready:
            self.queue.append(task)
            self._try_start()
        self._try_start()

    def _observe(self, tasks) -> None:
        for task in tasks:
            self.push(task.release, EventKind.RELEASE, task)


class _Releases:
    """Observer recording the order ``on_release`` sees."""

    def __init__(self) -> None:
        self.order: list[int] = []

    def on_release(self, sim, task) -> None:
        self.order.append(task.tid)

    def on_start(self, sim, task, machine) -> None:
        pass

    def on_complete(self, sim, task, machine) -> None:
        pass


def _play(program):
    """Run ``program`` on the engine and on the model; returns both
    ``(release order, starts, completions)`` triples."""
    preemptive, policy, outages, phases = program
    faults = FaultSchedule.build([(1, s, e) for s, e in outages]) if outages else None
    rec = _Releases()
    sim = Simulator(SRPTPS(1) if preemptive else EFT(1), obs=rec, faults=faults, fault_policy=policy)
    model = _Model(preemptive, policy, faults)
    for feeds, observers, until in phases:
        for as_instance, tasks in feeds:
            if as_instance:
                sim.add_instance(Instance(m=1, tasks=tasks))
                model.feed += Instance(m=1, tasks=tasks).tasks
            else:
                sim.add_tasks(tasks)
                model.feed += tasks
        for time_, tasks in observers:
            sim.at(time_, lambda s, tasks=tasks: s.add_tasks(tasks))
            model.push(time_, EventKind.OBSERVE, tasks)
        sim.run(until=until)
        model.run(until)
        assert sim.now == model.now
    return (
        (rec.order, dict(sim.starts), dict(sim.completions)),
        (model.released, model.starts, model.completions),
    )


_STEP = st.integers(0, 4).map(lambda k: k / 2)  # 0, 0.5, ..., 2: shared instants
_PROC = st.sampled_from([0.5, 1.0, 1.5])


@st.composite
def programs(draw):
    """A one-machine run: policy, outages and phases ``(feeds,
    observers, until)``, each phase's times at or after the cutoff
    before it, the last phase a whole drain."""
    tids = iter(range(10**6))

    def tasks(lo: float, max_size: int) -> tuple[Task, ...]:
        n = draw(st.integers(0, max_size))
        return tuple(Task(next(tids), lo + draw(_STEP), draw(_PROC)) for _ in range(n))

    outages = []
    for _ in range(draw(st.integers(0, 2))):
        start = draw(st.integers(0, 10)) / 2
        outages.append((start, start + draw(st.integers(1, 4)) / 2))
    n_phases = draw(st.integers(1, 3))
    lo, phases = 0.0, []
    for k in range(n_phases):
        feeds = [(draw(st.booleans()), tasks(lo, 4)) for _ in range(draw(st.integers(0, 2)))]
        observers = []
        for _ in range(draw(st.integers(0, 2))):
            at = lo + draw(_STEP)
            observers.append((at, tasks(at, 2)))
        until = None if k == n_phases - 1 else lo + draw(_STEP)
        phases.append((feeds, observers, until))
        lo = until if until is not None else lo
    return draw(st.booleans()), draw(st.sampled_from(["restart", "resume"])), outages, phases


# A fed release and a callback-injected one share an instant beyond a
# cutoff: the fed one took its insertion index when the first run
# started, so it fires first although it is still unfired after the cut.
_FED_BEFORE_INJECTED = (
    False, "restart", [],
    [
        ([(False, (Task(0, 2.0, 1.0),))], [(1.0, (Task(1, 2.0, 1.0),))], 1.5),
        ([], [], None),
    ],
)


class TestSameInstantOrderAcrossCutoffs:
    @given(programs())
    @example(_FED_BEFORE_INJECTED)
    @settings(max_examples=examples(150), deadline=None)
    def test_matches_time_priority_insertion_model(self, program):
        engine, model = _play(program)
        assert engine == model

    def test_fed_release_keeps_its_place_across_a_cutoff(self):
        (order, starts, _), _ = _play(_FED_BEFORE_INJECTED)
        assert order == [0, 1]
        assert starts == {0: 2.0, 1: 3.0}
