"""Discrete-event simulator for online dispatch scheduling.

The engine models ``m`` machines, each with a local FIFO run queue, and
an immediate-dispatch scheduler deciding the target machine the moment
a task is released (the push model of Section 3).  It exists alongside
the analytic driver of :mod:`repro.core.dispatch` for three reasons:

1. it observes the system *in time* (queue lengths, waiting work,
   utilisation) for the Section 7 experiments;
2. it hosts adaptive adversaries: an ``OBSERVE`` callback may inspect
   the state and inject new tasks at the current instant;
3. it validates the analytic driver — for any instance and tie-break,
   the event-driven execution must reproduce the analytic schedule
   exactly (an integration test).

The engine is deliberately single-threaded and deterministic; all the
randomness lives in the workload generators.  An optional ``obs=``
recorder (e.g. :class:`repro.obs.SimRecorder`) is driven at the three
lifecycle points — release, start, complete — on top of the generic
OBSERVE callbacks of :meth:`Simulator.at`.

Truncation semantics (``run(until=...)``): every event at time
``<= until`` is processed, the clock is then advanced to ``until``,
and the result accounts for the cut honestly — busy time is credited
only for work actually performed by ``until`` (completed tasks in
full, the running task pro-rated from its start), so utilisation never
exceeds 1; released-but-unstarted tasks contribute their current age
``now - r_i`` (a lower bound on their eventual flow) to ``max_flow``
and ``mean_flow`` and are flagged by ``n_pending``.  A truncated run
always takes the reference event loop.

Fault injection (``faults=``): a :class:`repro.faults.FaultSchedule`
adds MACHINE_DOWN/MACHINE_UP events.  While a machine is down it
starts nothing; releases dispatch over :math:`\\mathcal{M}_i \\cap
\\text{alive}` and a task whose alive set is empty is *parked* until a
machine of its set recovers (parked tasks re-dispatch at the recovery
instant, in park order).  The in-flight task of a failing machine
follows ``fault_policy``: ``"restart"`` loses its progress and is
re-dispatched (the partial work is credited to the failed machine as
busy time and surfaced as ``wasted_work``), ``"resume"`` stays bound
to the machine and continues with its residual at recovery.  Queued
tasks are re-dispatched under either policy by :mod:`repro.core.failover`
and run for the policy's ``charge`` there, each retracted from the
scheduler's book and booked anew, so later fresh decisions read where
the work really went.  Utilisation divides by
*alive* machine-seconds (downtime is removed from the denominator), so
``utilization <= 1`` still holds on degraded runs.  An empty fault
schedule reproduces the fault-free run bit-for-bit (the zero-fault
identity guarded by ``tests/faults``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from ..core.dispatch import ImmediateDispatchScheduler, realised
from ..core.eft import EFT
from ..core.failover import earliest_finish, split_parked
from ..core.schedule import Schedule
from ..core.task import Instance, Task, check_tasks
from ..core.vecengine import array_prefer_max, eft_decide, lower_eligibility
from ..faults.policies import RESTART, RESUME, validate_policy
from .events import EventKind, EventQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.schedule import FaultSchedule
    from ..obs.sim import SimObserver

__all__ = [
    "BACKENDS",
    "MachineState",
    "SimulationResult",
    "Simulator",
    "UnknownBackendError",
]

#: Valid ``Simulator(backend=...)`` names.
BACKENDS = ("auto", "reference")


class UnknownBackendError(ValueError):
    """Raised for a ``backend=`` name outside :data:`BACKENDS`."""


@dataclass(slots=True)
class MachineState:
    """Run-time state of one machine."""

    index: int
    busy_until: float = 0.0
    current: Task | None = None
    #: FIFO run queue; deque so starts pop the head in O(1).
    queue: deque[Task] = field(default_factory=deque)
    #: work performed on *completed* tasks; the running task is
    #: pro-rated separately so truncated runs never over-credit.
    busy_time: float = 0.0
    #: fault state: down machines start nothing and accumulate downtime.
    alive: bool = True
    down_since: float = 0.0
    downtime: float = 0.0
    #: engine time the current stint began (equals the task's recorded
    #: start except for a resumed stint after an outage).
    stint_start: float = 0.0
    #: bumped on failure so COMPLETE events scheduled before the
    #: failure are recognised as stale and dropped.
    epoch: int = 0
    #: the interrupted in-flight task under the "resume" policy, with
    #: its remaining processing time.
    paused: Task | None = None
    paused_residual: float = 0.0
    #: a PREEMPT re-evaluation is already queued for this instant —
    #: several same-instant releases coalesce to one deterministic
    #: check after the whole batch dispatched.
    preempt_pending: bool = False

    def waiting_work(self, now: float, work: Callable[[Task], float]) -> float:
        """Remaining work at ``now``: residual of the running task plus
        ``work(task)`` of everything queued (the :math:`w_t(j)` of
        Theorem 8; the engine's ``work`` counts a preempted task's
        residual); a paused task's residual counts here too."""
        residual = max(0.0, self.busy_until - now) if self.current is not None else 0.0
        if self.paused is not None:
            residual += self.paused_residual
        return residual + sum(map(work, self.queue))


@dataclass(slots=True)
class SimulationResult:
    """Outcome of a simulation run.

    On a truncated run (``n_pending > 0`` or tasks still in flight)
    ``max_flow`` / ``mean_flow`` are *lower bounds*: started tasks
    contribute their exact flow (their completion is determined — no
    preemption), pending tasks contribute their age ``now - r_i``.
    """

    schedule: Schedule
    max_flow: float
    mean_flow: float
    makespan: float
    n_completed: int
    utilization: float
    #: tasks released but never started — non-zero when ``run(until=...)``
    #: truncated the simulation, so partial results are visible.
    n_pending: int = 0
    #: fault accounting (all zero on fault-free runs): re-dispatches
    #: caused by failures, tasks parked at the end (alive set empty),
    #: in-flight tasks resumed after recovery, machine-seconds lost to
    #: downtime within the horizon, and work lost to restarts.
    n_requeued: int = 0
    n_parked: int = 0
    n_resumed: int = 0
    total_downtime: float = 0.0
    wasted_work: float = 0.0
    #: preemptions performed (always zero for non-preemptive policies —
    #: a zoo-wide invariant guarded by ``tests/schedulers``).  On a
    #: preemptive run ``schedule`` records first starts; flows come
    #: from the engine's actual completion times, and the schedule's
    #: machine-exclusivity invariant does not apply.
    n_preempted: int = 0


class Simulator:
    """Event-driven execution of an immediate-dispatch scheduler.

    Parameters
    ----------
    scheduler:
        The dispatch policy (e.g. :class:`repro.core.eft.EFT`).  The
        simulator calls ``scheduler.submit`` at each release so the
        scheduler's own bookkeeping stays authoritative; the engine
        then enacts the decision: it starts tasks as machines free up
        and schedules their COMPLETE events.
    obs:
        Optional :class:`repro.obs.SimObserver` (duck-typed) whose
        ``on_release`` / ``on_start`` / ``on_complete`` hooks fire at
        the matching lifecycle points; the optional fault hooks
        (``on_machine_down`` / ``on_machine_up`` / ``on_requeue`` /
        ``on_park`` / ``on_unpark`` / ``on_resume``) fire when a fault
        schedule is active.
    faults:
        Optional :class:`repro.faults.FaultSchedule` of machine
        DOWN/UP windows; ``None`` (and the empty schedule) means no
        machine ever fails.
    fault_policy:
        What happens to the in-flight task of a failing machine:
        ``"restart"`` (re-dispatch from scratch, default) or
        ``"resume"`` (continue with the residual at recovery).
    backend:
        Execution engine: ``"reference"`` always runs the event loop;
        ``"auto"`` (the default) fast-forwards an eligible run through
        :mod:`repro.core.vecengine` and *silently* falls back to the
        reference loop otherwise, recording why in
        :attr:`fallback_reason`.  A run is eligible when it is a whole
        drain (:meth:`run` with no cutoff) of a fresh simulator
        (nothing dispatched yet), the scheduler is plain :class:`EFT`
        with a deterministic Min/Max tie-break, no observer is
        attached, the fault schedule is absent or empty, the event
        queue is empty and tasks are waiting in the release feed
        (everything fed by :meth:`add_tasks`/:meth:`add_instance`).
        Results are bit-identical either way — byte-identity over the
        golden fixtures is enforced by
        ``tests/simulation/test_vec_backend.py`` and
        ``tests/campaigns/test_goldens.py``.  :attr:`backend_used`
        reports what the last :meth:`run` did.
    """

    def __init__(
        self,
        scheduler: ImmediateDispatchScheduler,
        obs: "SimObserver | None" = None,
        faults: "FaultSchedule | None" = None,
        fault_policy: str = RESTART,
        backend: str = "auto",
    ) -> None:
        if backend not in BACKENDS:
            raise UnknownBackendError(
                f"unknown backend {backend!r}; known: {', '.join(BACKENDS)}"
            )
        self.backend = backend
        #: what the most recent :meth:`run` executed on ("array" or
        #: "reference"); ``None`` before the first run.
        self.backend_used: str | None = None
        #: why the most recent array-eligible :meth:`run` fell back to
        #: the reference loop (``None`` when the array path ran or the
        #: backend is "reference").
        self.fallback_reason: str | None = None
        self.scheduler = scheduler
        self.obs = obs
        self.m = scheduler.m
        self.machines = {j: MachineState(index=j) for j in range(1, self.m + 1)}
        self.events = EventQueue()
        #: tasks fed before a run, in feed order: the next reference run
        #: streams them (the array path consumes them directly).
        self._feed: list[Task] = []
        self._feed_sorted = True
        #: the release-sorted feed the reference loop streams instead of
        #: queueing RELEASE events: tasks from ``_next`` on are unfired,
        #: and task ``i`` fires as a RELEASE event of seq ``_seq0 + i``
        #: would (see :mod:`repro.simulation.events`).
        self._stream: list[Task] = []
        self._next = 0
        self._seq0 = 0
        #: inside the reference loop, where fed tasks are pushed at once
        self._running = False
        self.now = 0.0
        self._completions: dict[int, float] = {}
        self._starts: dict[int, float] = {}
        self._assigned_machine: dict[int, int] = {}
        #: columnar dispatch books awaiting materialisation — set by the
        #: array fast-forward, which keeps everything as flat arrays and
        #: only builds the per-task dicts if something reads them.
        self._lazy_books: tuple | None = None
        self._tasks: list[Task] = []
        self._observers: list[Callable[["Simulator"], None]] = []
        self.fault_policy = validate_policy(fault_policy)
        self.faults = faults
        self._alive: set[int] = set(range(1, self.m + 1))
        #: the one Instance fed to a virgin simulator, if that is the
        #: whole workload — lets the array backend reuse it for the
        #: result schedule instead of re-sorting a rebuilt copy.
        self._fed_instance: Instance | None = None
        #: tids fed so far, bar those of a first whole Instance (claimed
        #: once another feed comes)
        self._tids: set[int] = set()
        self._unclaimed: Instance | None = None
        #: parked tasks in park order (released or requeued while their
        #: whole processing set was down).
        self.parked: list[Task] = []
        self.n_requeued = 0
        self.n_resumed = 0
        self.n_preempted = 0
        self.wasted_work = 0.0
        #: work already credited to busy_time for paused (resume
        #: policy) and preempted tasks, deducted again at their final
        #: COMPLETE so each task's total credit is exactly its service.
        self._credited: dict[int, float] = {}
        #: remaining service of preempted tasks (tid -> residual).
        self._remaining: dict[int, float] = {}
        #: the scheduler's sparse realised-service books (empty for
        #: plain identical-machine policies, so the hot path reads
        #: ``task.proc`` directly and stays byte-identical).
        self._svc: dict[int, float] | None = getattr(scheduler, "_service", None)
        self._preemptive = bool(getattr(scheduler, "preemptive", False))
        if self._preemptive and not callable(getattr(scheduler, "preempt_key", None)):
            raise TypeError(
                f"{type(scheduler).__name__} declares preemptive=True but has no "
                "preempt_key(task, remaining, now) method"
            )
        if faults is not None:
            if faults.max_machine() > self.m:
                raise ValueError(
                    f"fault schedule references machine {faults.max_machine()}, "
                    f"but the simulator has m={self.m}"
                )
            for time_, kind, machine in faults.events():
                self.events.push(
                    time_,
                    EventKind.MACHINE_DOWN if kind == "down" else EventKind.MACHINE_UP,
                    machine,
                )

    # -- dispatch books -----------------------------------------------------
    # The reference loop fills these dicts task by task; the array
    # fast-forward computes the same contents as flat arrays and defers
    # the (surprisingly expensive) dict builds until first read.

    def _materialize_books(self) -> None:
        tasks, mach_l, start_l, comp_a = self._lazy_books
        self._lazy_books = None
        # the zips stop at the array run's rows, whatever joined the
        # task list since
        tids = [t.tid for t in tasks]
        self._starts = dict(zip(tids, start_l))
        self._completions = dict(zip(tids, comp_a.tolist()))
        self._assigned_machine = dict(zip(tids, mach_l))

    @property
    def starts(self) -> dict[int, float]:
        """Start time of every started task (tid -> sigma)."""
        if self._lazy_books is not None:
            self._materialize_books()
        return self._starts

    @property
    def completions(self) -> dict[int, float]:
        """Completion time of every completed task (tid -> C)."""
        if self._lazy_books is not None:
            self._materialize_books()
        return self._completions

    @property
    def assigned_machine(self) -> dict[int, int]:
        """Dispatch decision of every released task (tid -> machine)."""
        if self._lazy_books is not None:
            self._materialize_books()
        return self._assigned_machine

    # -- workload feeding ---------------------------------------------------
    def add_tasks(self, tasks: Iterable[Task]) -> None:
        """Release ``tasks`` at their release times (any order; tasks
        released at the same instant fire in feed order).  Called from
        inside a run (an :meth:`at` callback), the RELEASE events are
        pushed at once; otherwise the tasks wait in the release feed,
        which the next :meth:`run` streams.  A task whose processing set names
        a machine beyond ``m``, whose tid was fed before (or twice in
        ``tasks``), or whose release lies before the clock, is rejected
        (``ValueError``) before any of ``tasks`` is fed."""
        tasks = list(tasks)
        check_tasks(self.m, tasks)
        if tasks:
            self._check_not_past(min(tasks, key=attrgetter("release")))
        self._claim(tasks)
        self._feed_tasks(tasks)

    def _check_not_past(self, first: Task) -> None:
        """Reject a feed whose earliest task ``first`` is released
        before the clock: it would fire at its release and move the
        clock back."""
        if first.release < self.now:
            raise ValueError(
                f"task {first.tid} released at {first.release} fed at time {self.now}; "
                "a feed may not release into the past"
            )

    def _claim(self, tasks: Sequence[Task]) -> None:
        """Record the tids of ``tasks`` as fed, rejecting one fed before."""
        if self._unclaimed is not None:
            self._tids.update(t.tid for t in self._unclaimed.tasks)
            self._unclaimed = None
        dup = next((t.tid for t in tasks if t.tid in self._tids), None)
        if dup is not None:
            raise ValueError(f"duplicate task id {dup}")
        self._tids.update(t.tid for t in tasks)

    def _feed_tasks(self, tasks: Sequence[Task]) -> None:
        """Feed range-checked ``tasks`` (see :meth:`add_tasks`)."""
        self._fed_instance = None
        if self._running:
            for t in tasks:
                self.events.push(t.release, EventKind.RELEASE, t)
            return
        self._feed.extend(tasks)
        self._feed_sorted = False

    def add_instance(self, instance: Instance) -> None:
        """Feed a whole instance (``ValueError`` if it repeats a tid
        fed before or releases a task before the clock)."""
        if instance.m != self.m:
            raise ValueError(f"instance has m={instance.m}, simulator has m={self.m}")
        if instance.tasks:
            # release-sorted: the first task is the earliest
            self._check_not_past(instance.tasks[0])
        feed = self._feed
        virgin = not self._tasks and not self.events and not feed and not self._unfired()
        # an Instance is release-sorted, so it keeps a sorted feed sorted
        # unless it starts before the feed's last release
        still_sorted = self._feed_sorted and (
            not feed or not instance.tasks or feed[-1].release <= instance.tasks[0].release
        )
        # an Instance's sets and tids are checked already; a first
        # feed's tids are claimed only once another feed needs them
        if not self._tids and self._unclaimed is None:
            self._unclaimed = instance
        else:
            self._claim(instance.tasks)
        self._feed_tasks(instance.tasks)
        self._feed_sorted = still_sorted
        if virgin:
            self._fed_instance = instance

    def _release_feed(self) -> list[Task]:
        """The feed in firing order: by release, feed order at an
        instant (one stable sort after an out-of-order feed)."""
        if not self._feed_sorted:
            self._feed.sort(key=attrgetter("release"))
            self._feed_sorted = True
        return self._feed

    def _unfired(self) -> bool:
        """Whether streamed releases are still unfired (after a cutoff)."""
        return self._next < len(self._stream)

    def _start_stream(self) -> None:
        """Hand the feed to the reference loop: it becomes the release
        stream, numbered after every event queued so far.  Releases a
        cutoff left unfired keep their seqs; a feed that comes after
        them is queued as RELEASE events instead, numbered as its
        stream would have been."""
        feed = self._release_feed()
        self._feed = []
        if self._unfired():
            for t in feed:
                self.events.push(t.release, EventKind.RELEASE, t)
        else:
            self._stream, self._next = feed, 0
            self._seq0 = self.events.reserve(len(feed))

    def at(self, time: float, callback: Callable[["Simulator"], None]) -> None:
        """Run ``callback(sim)`` when the clock reaches ``time``.

        The callback may inject tasks at the current instant (adaptive
        adversaries) or record observations (collectors).  The
        within-instant order is pinned (COMPLETE before RELEASE before
        OBSERVE), so a callback always sees the settled state of its
        instant: same-time completions have freed their machines and
        same-time releases have been dispatched.  Multiple callbacks at
        one instant fire in scheduling order.
        """
        self.events.push(time, EventKind.OBSERVE, callback)

    # -- event handlers ------------------------------------------------------
    def _obs_hook(self, name: str, *args) -> None:
        """Fire an *optional* observer hook (fault lifecycle points are
        additions to the :class:`SimObserver` protocol — observers that
        predate them keep working)."""
        if self.obs is not None:
            hook = getattr(self.obs, name, None)
            if hook is not None:
                hook(self, *args)

    def _handle_release(self, task: Task) -> None:
        eligible = task.eligible(self.m)
        alive_eligible = eligible & self._alive
        if not alive_eligible:
            # Whole processing set down: park until a machine recovers.
            self._tasks.append(task)
            if self.obs is not None:
                self.obs.on_release(self, task)
            self._park(task)
            return
        if alive_eligible != eligible:
            # Degraded dispatch: the scheduler decides over the alive
            # subset.  The original task (full set) stays authoritative
            # in the engine's books, so traces and schedules are
            # unchanged by who happened to be down.
            record = self.scheduler.submit(task.restricted_to(alive_eligible))
        else:
            record = self.scheduler.submit(task)
        mach = self.machines[record.machine]
        self._assigned_machine[task.tid] = record.machine
        self._tasks.append(task)
        mach.queue.append(task)
        if self.obs is not None:
            self.obs.on_release(self, task)
        self._try_start(mach)
        if (
            self._preemptive
            and mach.current is not None
            and mach.queue
            and not mach.preempt_pending
        ):
            # Re-evaluate after the whole same-instant release batch
            # (PREEMPT fires after every RELEASE of this instant).
            mach.preempt_pending = True
            self.events.push(self.now, EventKind.PREEMPT, mach.index)

    def _service_time(self, task: Task) -> float:
        """Realised service time of ``task`` (its scheduler-recorded
        execution time where that differs from ``proc``)."""
        svc = self._svc
        if svc:
            return svc.get(task.tid, task.proc)
        return task.proc

    def _work_left(self, task: Task) -> float:
        """Service ``task`` still needs: a preempted task's residual,
        else its service time."""
        left = self._remaining.get(task.tid)
        return self._service_time(task) if left is None else left

    def _pick_queued(self, mach: MachineState) -> Task:
        """Remove and return the queued task the policy runs next:
        FIFO head for non-preemptive policies, the minimum
        ``preempt_key`` for preemptive ones (deterministic — the key
        embeds the tid)."""
        if not self._preemptive:
            return mach.queue.popleft()
        key, left = self.scheduler.preempt_key, self._work_left
        best = min(
            range(len(mach.queue)),
            key=lambda i: key(mach.queue[i], left(mach.queue[i]), self.now),
        )
        task = mach.queue[best]
        del mach.queue[best]
        return task

    def _try_start(self, mach: MachineState) -> None:
        if (
            mach.alive
            and mach.current is None
            and mach.paused is None
            and mach.queue
            and mach.busy_until <= self.now
        ):
            task = self._pick_queued(mach)
            residual = self._remaining.pop(task.tid, None)
            run_for = residual if residual is not None else self._service_time(task)
            mach.current = task
            mach.busy_until = self.now + run_for
            mach.stint_start = self.now
            first = task.tid not in self._starts
            if first:
                self._starts[task.tid] = self.now
            self.events.push(
                mach.busy_until, EventKind.COMPLETE, (mach.index, task, mach.epoch)
            )
            if self.obs is not None:
                if first:
                    self.obs.on_start(self, task, mach.index)
                else:
                    self._obs_hook("on_preempt_resume", task, mach.index)

    def _handle_complete(self, machine_index: int, task: Task, epoch: int = 0) -> None:
        mach = self.machines[machine_index]
        if epoch != mach.epoch:
            return  # stale: the machine failed (or preempted) after this was scheduled
        mach.current = None
        # Busy time is credited at completion (not at start), so a
        # truncated run only counts work actually performed.  Work
        # already credited at an interruption (resume policy or a
        # preemption) is deducted so the task's total credit is exactly
        # its service time.
        mach.busy_time += self._service_time(task) - self._credited.pop(task.tid, 0.0)
        self._completions[task.tid] = self.now
        if self.obs is not None:
            self.obs.on_complete(self, task, machine_index)
        self._try_start(mach)

    # -- preemption handlers -------------------------------------------------
    def _handle_preempt(self, machine: int) -> None:
        """Deterministic preemption check: if some queued task beats
        the running one under the policy's ``preempt_key``, park the
        running task's residual back on the queue and re-fill the
        machine at once.  Idempotent — a stale check on a machine whose
        state already settled does nothing."""
        mach = self.machines[machine]
        mach.preempt_pending = False
        if not mach.alive or mach.current is None or not mach.queue:
            return
        cur = mach.current
        cur_rem = mach.busy_until - self.now
        key = self.scheduler.preempt_key
        best_key = min(key(t, self._work_left(t), self.now) for t in mach.queue)
        if best_key >= key(cur, cur_rem, self.now):
            return
        work_done = self.now - mach.stint_start
        mach.busy_time += work_done
        self._credited[cur.tid] = self._credited.get(cur.tid, 0.0) + work_done
        self._remaining[cur.tid] = cur_rem
        mach.current = None
        mach.busy_until = self.now
        mach.epoch += 1  # the stint's pending COMPLETE becomes stale
        mach.queue.append(cur)
        self.n_preempted += 1
        self._obs_hook("on_preempt", cur, machine)
        self._try_start(mach)

    # -- fault handlers ------------------------------------------------------
    def _park(self, task: Task) -> None:
        self.parked.append(task)
        self._obs_hook("on_park", task)

    def _redispatch(self, tasks: Sequence[Task], hook: str = "on_requeue") -> None:
        """Re-place ``tasks`` after a failure or at an unpark: retract
        their placements, tail first, then place each by the failure
        rule over the engine's waiting work ``w_j``, booked from ``now +
        w_j`` through the ``_book`` the serve ``Dispatcher.commit``
        uses, or park it when its whole set is down."""
        sched, now = self.scheduler, self.now
        for task in reversed(tasks):
            sched.retract(task.tid, now)
        for task in tasks:
            candidates = task.eligible(self.m) & self._alive
            if not candidates:
                self._assigned_machine.pop(task.tid, None)
                self._park(task)
                continue
            waiting = {j: self.machines[j].waiting_work(now, self._work_left) for j in candidates}
            machine = earliest_finish(waiting, waiting.get, lambda j: sched.service(task, j))
            mach = self.machines[machine]
            sched._book(task, machine, now + waiting[machine])
            self._assigned_machine[task.tid] = machine
            if hook == "on_requeue":
                self.n_requeued += 1
            mach.queue.append(task)
            self._obs_hook(hook, task, machine)
            self._try_start(mach)

    def _handle_machine_down(self, machine: int) -> None:
        mach = self.machines[machine]
        if not mach.alive:  # pragma: no cover - schedules are normalised
            return
        mach.alive = False
        mach.down_since = self.now
        mach.epoch += 1  # pending COMPLETE events become stale
        self._alive.discard(machine)
        self._obs_hook("on_machine_down", machine)
        displaced: list[Task] = []
        if mach.current is not None:
            task = mach.current
            work_done = self.now - mach.stint_start
            residual = mach.busy_until - self.now
            mach.busy_time += work_done  # the machine *was* occupied
            mach.current = None
            if self.fault_policy == RESUME:
                mach.paused = task
                mach.paused_residual = residual
                self._credited[task.tid] = self._credited.get(task.tid, 0.0) + work_done
            else:  # restart-elsewhere: progress is lost (including any
                # earlier preempted stints credited on this machine)
                self.wasted_work += work_done + self._credited.pop(task.tid, 0.0)
                self._remaining.pop(task.tid, None)
                self._starts.pop(task.tid, None)
                displaced.append(task)
        mach.busy_until = self.now
        displaced.extend(mach.queue)
        mach.queue.clear()
        for task in displaced:
            if task.tid in self._remaining:
                # A preempted task's partial progress lives on this
                # machine; losing the machine loses the progress under
                # either policy (the residual cannot migrate).
                del self._remaining[task.tid]
                self.wasted_work += self._credited.pop(task.tid, 0.0)
                self._starts.pop(task.tid, None)
        self._redispatch(displaced)

    def _handle_machine_up(self, machine: int) -> None:
        mach = self.machines[machine]
        if mach.alive:  # pragma: no cover - schedules are normalised
            return
        mach.alive = True
        mach.downtime += self.now - mach.down_since
        self._alive.add(machine)
        self._obs_hook("on_machine_up", machine)
        if mach.paused is not None:
            task, residual = mach.paused, mach.paused_residual
            mach.paused = None
            mach.paused_residual = 0.0
            mach.current = task
            mach.stint_start = self.now
            mach.busy_until = self.now + residual
            self.n_resumed += 1
            self.events.push(
                mach.busy_until, EventKind.COMPLETE, (machine, task, mach.epoch)
            )
            self._obs_hook("on_resume", task, machine)
        # Recovery may revive parked tasks (their alive set was empty);
        # re-dispatch in park order at this very instant.
        ready, self.parked = split_parked(self.parked, self._alive, self.m)
        self._redispatch(ready, "on_unpark")
        self._try_start(mach)

    # -- run ------------------------------------------------------------------
    def run(self, until: float | None = None) -> SimulationResult:
        """Drain the event queue (or stop the clock at ``until``).

        With ``until``, every event at time ``<= until`` is processed
        and the clock then advances to ``until`` even if the last event
        fired earlier, so :meth:`waiting_profile`, :meth:`uncompleted_on`
        and :meth:`result` reflect the state *at the cutoff*, not at
        the last event.  Calling :meth:`run` again resumes seamlessly.

        Under ``backend="auto"`` an eligible whole drain is
        fast-forwarded through the vectorized engine (bit-identical
        result and final state — inspection and later runs keep
        working); everything else, every cutoff included, takes the
        reference event loop, with :attr:`fallback_reason` recording
        why.
        """
        if self.backend == "auto":
            self.fallback_reason = None
            result = self._try_run_array(until)
            if result is not None:
                self.backend_used = "array"
                return result
        self.backend_used = "reference"
        return self._run_reference(until)

    def _run_reference(self, until: float | None) -> SimulationResult:
        """The event loop (see :meth:`run` for semantics): the release
        stream merged with the event heap by ``(time, priority, seq)``."""
        if self._lazy_books is not None:
            # the handlers below write the plain books
            self._materialize_books()
        if self._feed:
            self._start_stream()
        heap, pop = self.events.heap, self.events.pop
        stream, i, seq0 = self._stream, self._next, self._seq0
        prio = EventKind.RELEASE.priority
        # the stream head's sort key (None once the stream is spent)
        head = (stream[i].release, prio, seq0 + i) if i < len(stream) else None
        self._running = True
        try:
            while True:
                if head is not None and (not heap or head < heap[0]):
                    if until is not None and head[0] > until:
                        break
                    task = stream[i]
                    i += 1
                    self._next = i
                    head = (stream[i].release, prio, seq0 + i) if i < len(stream) else None
                    self.now = task.release
                    self._handle_release(task)
                    continue
                if not heap or (until is not None and heap[0][0] > until):
                    break
                ev = pop()
                self.now = ev.time
                kind = ev.kind
                if kind is EventKind.COMPLETE:
                    self._handle_complete(*ev.payload)
                elif kind is EventKind.RELEASE:
                    self._handle_release(ev.payload)
                elif kind is EventKind.OBSERVE:
                    ev.payload(self)
                elif kind is EventKind.MACHINE_DOWN:
                    self._handle_machine_down(ev.payload)
                elif kind is EventKind.MACHINE_UP:
                    self._handle_machine_up(ev.payload)
                else:  # EventKind.PREEMPT
                    self._handle_preempt(ev.payload)
        finally:
            self._running = False
        if not self._unfired():
            self._stream, self._next = [], 0
        if until is not None and self.now < until:
            self.now = until
        return self.result()

    # -- array fast path ------------------------------------------------------
    def _array_fallback_reason(self, until: float | None) -> str | None:
        """Why this run can't take the array fast path (``None`` = it can)."""
        s = self.scheduler
        if type(s) is not EFT:
            # Registry policies (SRPT-PS, NC-Setup, Speed-EFT, the
            # baselines, even EFT subclasses) take the reference loop;
            # the pinned literal reason lets callers branch on it.  The
            # tie-break test below is eft_schedule's rule too.
            return "scheduler"
        if array_prefer_max(s.tiebreak) is None:
            name = getattr(s.tiebreak, "name", "custom")
            return f"tie-break {name!r} needs per-decision work"
        if self.obs is not None:
            return "observer hooks need per-event work"
        if self.faults is not None and bool(self.faults):
            return "fault schedule needs per-event work"
        if until is not None:
            return "cutoff needs per-event work"
        if self.now != 0.0 or self._tasks or self.starts or self.parked:
            return "simulation already started"
        if not s.fresh:
            return "scheduler already has dispatches"
        if not self.events and not self._feed and not self._unfired():
            return "no pending work"
        if self.events or self._unfired():
            extra = sorted({ev.kind.name for ev in self.events} - {EventKind.RELEASE.name})
            if not extra:  # releases pushed by the callbacks of an earlier run
                return "simulation already started"
            return f"non-release events pending ({', '.join(extra)})"
        return None

    def _try_run_array(self, until: float | None) -> SimulationResult | None:
        """Fast-forward an eligible whole drain on the vectorized engine.

        Computes every dispatch decision in one
        :func:`repro.core.vecengine.eft_decide` pass (identical
        arithmetic to the reference loop), then syncs the drained
        simulator and scheduler state — machine states, dispatch books
        — so :meth:`result`, :meth:`waiting_profile` and later feeds
        see exactly what the reference loop would have left.  Returns
        ``None`` (and records :attr:`fallback_reason`) when the run is
        not expressible; nothing is mutated in that case.
        """
        reason = self._array_fallback_reason(until)
        if reason is not None:
            self.fallback_reason = reason
            return None
        # The feed in firing order (release, then feed order) — the
        # exact order the reference loop submits it, out-of-order
        # add_tasks feeds included.
        released = self._release_feed()
        elig = lower_eligibility(self.m, released)
        n = len(released)
        m = self.m
        rel = [t.release for t in released]
        proc = [t.proc for t in released]
        prefer_max = array_prefer_max(self.scheduler.tiebreak)
        mach_l, start_l, comp_after = eft_decide(m, rel, proc, elig, prefer_max)
        # Each column is built once and shared by the books, the
        # machine states, the flows and the schedule.
        rel_a = np.fromiter(rel, np.float64, n)
        proc_a = np.fromiter(proc, np.float64, n)
        mach_a = np.fromiter(mach_l, np.int64, n)
        start_a = np.fromiter(start_l, np.float64, n)
        comp_a = start_a + proc_a
        # A drain ends at the last COMPLETE.
        makespan = float(comp_a.max())
        self.now = makespan

        # -- dispatch books (simulator + scheduler) -----------------------
        # Columnar sync: the dict views are deferred (see
        # :meth:`_materialize_books`) — a result-only run never builds
        # them, which is most of the per-task Python cost at scale; the
        # tids too are read off the tasks only then.  The scheduler's
        # placement records are the same two lists: its later submits
        # append to them only after _run_reference has materialised the
        # deferred books, whose zips stop at this run's rows anyway.
        self._lazy_books = (released, mach_l, start_l, comp_a)
        self._tasks = released
        self._feed = []
        self.scheduler.book_drain(
            released, mach_l, start_l, comp_a, comp_after, np.bincount(mach_a, minlength=m + 1)
        )

        # -- machine states ------------------------------------------------
        busy_until = np.zeros(m + 1)
        stint = np.zeros(m + 1)
        np.maximum.at(busy_until, mach_a, comp_a)
        np.maximum.at(stint, mach_a, start_a)
        busy = np.bincount(mach_a, weights=proc_a, minlength=m + 1)
        for j in range(1, m + 1):
            ms = self.machines[j]
            ms.busy_until = float(busy_until[j])
            ms.stint_start = float(stint[j])
            ms.busy_time = float(busy[j])

        # -- result, derived in batch (reference summation order) ---------
        flows = comp_a - rel_a
        # Python's sum in feed order, as result() sums: np.sum would
        # pair the terms differently and move the last bits
        mean_flow = sum(flows.tolist()) / n
        inst = self._fed_instance
        if inst is not None and n == inst.n:
            # the fed Instance is the feed itself
            sched = Schedule.from_arrays(inst, mach_a, start_a, rel_a, proc_a)
        else:
            sched = self._instance_schedule(released, mach_a, start_a, rel_a, proc_a)
        return self._summarise(sched, float(flows.max()), mean_flow, makespan, n, n, n)

    def result(self) -> SimulationResult:
        """Summarise the run so far (exact on a drained queue, honest
        lower bounds at a truncation instant — see the module notes)."""
        starts, machine = self.starts, self.assigned_machine
        started = [t for t in self._tasks if t.tid in starts]
        n = len(started)
        tids = [t.tid for t in started]
        # Service-aware policies: the schedule carries realised times,
        # as the analytic driver's derived instance does.
        tasks = realised(started, self._svc)
        rel_a = np.fromiter((t.release for t in tasks), np.float64, n)
        proc_a = np.fromiter((t.proc for t in tasks), np.float64, n)
        mach_a = np.fromiter(map(machine.__getitem__, tids), np.int64, n)
        start_a = np.fromiter(map(starts.__getitem__, tids), np.float64, n)
        fault_active = self.faults is not None and bool(self.faults)
        if fault_active or self._preemptive:
            # Under faults (or preemption) a start no longer determines
            # the completion (the machine may fail, or the task may be
            # interrupted): completed tasks use their actual engine
            # completion times, everything still open — queued,
            # in-flight, paused, parked — contributes its age as a
            # lower bound.
            all_flows = [
                self.completions[t.tid] - t.release
                if t.tid in self.completions
                else self.now - t.release
                for t in self._tasks
            ]
        else:
            # Started tasks have determined completions (no preemption);
            # pending tasks contribute their age as a flow lower bound.
            # Summed in release order: Schedule.flows()'s arithmetic,
            # before the rows take the instance's (release, tid) order.
            flows = ((start_a + proc_a) - rel_a).tolist()
            pending_ages = [self.now - t.release for t in self._tasks if t.tid not in starts]
            all_flows = flows + pending_ages
        sched = self._instance_schedule(tasks, mach_a, start_a, rel_a, proc_a)
        makespan = max(self.completions.values(), default=0.0)
        mean_flow = (sum(all_flows) / len(all_flows)) if all_flows else 0.0
        return self._summarise(
            sched, max(all_flows, default=0.0), mean_flow, makespan,
            len(self.completions), len(self._tasks), len(starts),
        )

    def _instance_schedule(
        self,
        tasks: Sequence[Task],
        mach_a: np.ndarray,
        start_a: np.ndarray,
        rel_a: np.ndarray,
        proc_a: np.ndarray,
    ) -> Schedule:
        """The schedule of ``tasks`` (release order) placed by the
        columns, with its rows in the Instance's ``(release, tid)``
        order, which the release order already is unless same-instant
        tasks came out of tid order."""
        n = len(tasks)
        order = np.lexsort((np.fromiter((t.tid for t in tasks), np.int64, n), rel_a))
        if (order != np.arange(n)).any():
            tasks = [tasks[i] for i in order.tolist()]
            mach_a, start_a, rel_a, proc_a = (a[order] for a in (mach_a, start_a, rel_a, proc_a))
        inst = Instance(m=self.m, tasks=tuple(tasks))
        return Schedule.from_arrays(inst, mach_a, start_a, rel_a, proc_a)

    def _summarise(
        self, sched: Schedule, max_flow: float, mean_flow: float, makespan: float,
        n_done: int, n: int, n_run: int,
    ) -> SimulationResult:
        """The :class:`SimulationResult` over ``sched`` and its flow
        statistics, with ``n_done`` of ``n`` released tasks completed and
        ``n_run`` started: utilisation and the fault counters."""
        completed_busy = sum(m.busy_time for m in self.machines.values())
        in_flight_busy = sum(
            self.now - m.stint_start
            for m in self.machines.values()
            if m.current is not None
        )
        total_busy = completed_busy + in_flight_busy
        # "Done" means no work remains anywhere: every released task
        # completed *and* no release is still fed, streamed or queued
        # and no COMPLETE is queued (a truncated run may leave future
        # releases pending).
        all_done = (
            n_done == n and not self._feed and not self._unfired() and not self.events.has_work()
        )
        # Over [0, horizon] each machine's credited segments are
        # disjoint and lie within its alive time, so utilisation is
        # <= 1 by construction once downtime leaves the denominator.
        horizon = makespan if all_done else max(self.now, makespan)
        fault_active = self.faults is not None and bool(self.faults)
        downtime = self.faults.total_downtime(horizon) if fault_active else 0.0
        capacity = self.m * horizon - downtime
        util = total_busy / capacity if capacity > 0 else 0.0
        return SimulationResult(
            schedule=sched,
            max_flow=max_flow,
            mean_flow=mean_flow,
            makespan=makespan,
            n_completed=n_done,
            utilization=util,
            n_pending=n - n_run,
            n_requeued=self.n_requeued,
            n_parked=len(self.parked),
            n_resumed=self.n_resumed,
            total_downtime=downtime,
            wasted_work=self.wasted_work,
            n_preempted=self.n_preempted,
        )

    # -- state inspection -----------------------------------------------------
    def waiting_profile(self) -> list[float]:
        """Current :math:`w_t(j)` for every machine, 1-based order."""
        return [
            self.machines[j].waiting_work(self.now, self._work_left)
            for j in range(1, self.m + 1)
        ]

    def uncompleted_on(self, machines: Sequence[int]) -> int:
        """Number of released-but-uncompleted tasks assigned to
        ``machines`` (the :math:`|G_{0,k}|` statistic of Theorem 5)."""
        wanted = set(machines)
        count = 0
        for t in self._tasks:
            if t.tid in self.completions:
                continue
            # Parked tasks have no assignment (``get`` misses them).
            if self.assigned_machine.get(t.tid) in wanted:
                count += 1
        return count
