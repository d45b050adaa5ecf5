"""Immediate-dispatch scheduling framework.

An online algorithm has the *Immediate Dispatch* property (Section 3)
if every task is allocated to a machine as soon as it is released:
:math:`r_i \\le \\rho_i < r_i + \\epsilon`.  Such schedulers are push
based — no central queue — which is what scalable key-value stores
need.

:class:`ImmediateDispatchScheduler` is the common driver: it keeps the
per-machine completion times :math:`C_{j,i}` and the running schedule,
and subclasses implement :meth:`choose` (which machine gets the task).
The :meth:`place` method is the decision step: it enforces
release-order submission, asks :meth:`choose` and books the charge
into the one per-machine book every layer shares — horizons (EFT
decides from them alone, Equation (2)), task counts and the live
entries behind :meth:`outstanding`; :meth:`retract` alone undoes a
booking.  :meth:`submit` is :meth:`place` plus the placement records
:meth:`schedule` reads (task, machine and start columns), making the
class usable both for offline replay (:meth:`run`) and by adaptive
adversaries that interleave observation and submission (Theorems 3–5).
:meth:`book_drain` enters a whole drain decided elsewhere (the
simulator's array engine) as those submits would have; no other module
writes the books.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .schedule import Schedule
from .task import Instance, Task

__all__ = ["DispatchRecord", "ImmediateDispatchScheduler", "realised"]


def realised(tasks: Iterable[Task], service: Mapping[int, float] | None) -> tuple[Task, ...]:
    """``tasks`` with ``proc`` replaced by the realised service time in
    ``service``: the *derived* instance schedules and metrics use."""
    if not service:
        return tuple(tasks)
    return tuple(replace(t, proc=service[t.tid]) if t.tid in service else t for t in tasks)


@dataclass(frozen=True, slots=True)
class DispatchRecord:
    """One dispatch decision, as returned by
    :meth:`ImmediateDispatchScheduler.place`.

    ``tie_set`` is the candidate set the scheduler reported for the
    decision (for EFT this is :math:`U'_i` of Equation (2); baselines
    report the full eligible set).
    """

    task: Task
    machine: int
    start: float
    tie_set: frozenset[int] = field(default_factory=frozenset)


class ImmediateDispatchScheduler:
    """Base class for push (immediate dispatch) schedulers.

    Subclasses override :meth:`choose`, receiving the task and
    returning ``(machine, tie_set)``.  The driver computes the start
    time as :math:`\\sigma_i = \\max(r_i, C_{u,i-1})` and updates
    machine state.
    """

    name = "immediate-dispatch"

    #: Whether the policy expects the engine to preempt running tasks.
    #: Preemptive policies must also provide ``preempt_key(task,
    #: remaining, now)`` — an orderable priority the engine minimises
    #: over a machine's queued-plus-running tasks (see
    #: :mod:`repro.schedulers.contract`).
    preemptive = False
    #: Whether ``choose`` may read ``task.proc``.  Non-clairvoyant
    #: policies decide from observable state only; they may still use
    #: the realised processing time in :meth:`service`/:meth:`charge`
    #: (the *system* experiences the service time either way).
    clairvoyant = True

    def __init__(self, m: int) -> None:
        if m < 1:
            raise ValueError("need at least one machine")
        self.m = m
        #: completion time :math:`C_{j,i}` of each machine's assigned work
        self.completions: dict[int, float] = {j: 0.0 for j in range(1, m + 1)}
        #: per-machine count of assigned tasks, less retractions (adversaries read it)
        self.task_counts: dict[int, int] = {j: 0 for j in range(1, m + 1)}
        #: the book: ``tid -> (machine, start, end)`` of each committed
        #: placement unfinished at the latest query, a min-heap of their
        #: ``(end, tid)`` (retracted ones are skipped when popped) and
        #: the live entries per machine
        self._live: dict[int, tuple[int, float, float]] = {}
        self._ends: list[tuple[float, int]] = []
        self._counts: dict[int, int] = {j: 0 for j in range(1, m + 1)}
        #: the placement records :meth:`submit` keeps for
        #: :meth:`schedule`, as columns: task, machine and start of each
        #: submitted task, in submission order
        self._tasks: list[Task] = []
        self._machines: list[int] = []
        self._starts: list[float] = []
        self._last_release = 0.0
        #: realised service times that differ from ``task.proc`` —
        #: sparse so the plain identical-machines path (EFT and the
        #: baselines, where ``charge == proc``) pays nothing and
        #: stays byte-identical to the pre-zoo books.
        self._service: dict[int, float] = {}

    # -- to be provided by subclasses -------------------------------------
    def choose(self, task: Task) -> tuple[int, frozenset[int]]:
        """Pick the machine for ``task``; return ``(machine, tie_set)``."""
        raise NotImplementedError

    def service(self, task: Task, machine: int) -> float:
        """Service time of ``task`` on ``machine``, without side effects
        (see :mod:`repro.schedulers.contract`)."""
        return task.proc

    def charge(self, task: Task, machine: int, start: float) -> float:
        """Commit ``task`` to ``machine`` from ``start`` and return its
        service time there; called once per placement."""
        return task.proc

    def state_dict(self) -> dict[str, Any]:
        """Policy state for serve snapshots (see :mod:`repro.schedulers.contract`)."""
        return {}

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Restore :meth:`state_dict` output onto a fresh policy."""

    def on_retract(self, tid: int, machine: int, start: float, end: float) -> None:
        """Policy hook: :meth:`retract` undid ``tid``'s placement, the
        book's entry ``machine, start, end``."""

    def service_of(self, tid: int, default: float) -> float:
        """The recorded service time of a dispatched task (``default``
        when the task ran at its nominal ``proc``)."""
        return self._service.get(tid, default)

    # -- driver ------------------------------------------------------------
    def _book(self, task: Task, machine: int, start: float) -> float:
        """Charge ``task`` on ``machine`` from ``start`` into the book
        (service, horizon, task count, live entry; re-placements
        :meth:`retract` first) and return the charge."""
        dur = self.charge(task, machine, start)
        if dur != task.proc:
            self._service[task.tid] = dur
        elif self._service:
            self._service.pop(task.tid, None)
        end = start + dur
        self.completions[machine] = end
        self.task_counts[machine] += 1
        self._live[task.tid] = (machine, start, end)
        heappush(self._ends, (end, task.tid))
        self._counts[machine] += 1
        return dur

    def outstanding(self, now: float) -> dict[int, int]:
        """Retire the entries finished by ``now`` (``end <= now``, for
        good: query in time order) and return the book's own dict of
        live entries per machine (read it, do not keep it)."""
        ends, live, counts = self._ends, self._live, self._counts
        while ends and ends[0][0] <= now:
            end, tid = heappop(ends)
            entry = live.get(tid)
            if entry is not None and entry[2] == end:
                del live[tid]
                counts[entry[0]] -= 1
        return counts

    def _load_book(self, entries: Iterable[Sequence]) -> None:
        """Replace the book by ``[tid, machine, start, end]`` entries."""
        self._live = {int(tid): (int(j), float(s), float(e)) for tid, j, s, e in entries}
        self._ends = sorted((end, tid) for tid, (_, _, end) in self._live.items())
        self._counts = {j: 0 for j in range(1, self.m + 1)}
        for j, _, _ in self._live.values():
            self._counts[j] += 1

    def _rng(self) -> Any:
        """The generator a randomised policy draws from — its own
        ``rng`` or its tie-break's — else ``None``."""
        rng = getattr(self, "rng", None)
        if rng is None:
            rng = getattr(getattr(self, "tiebreak", None), "rng", None)
        return rng

    def book_state(self) -> dict[str, Any]:
        """Everything a serve snapshot needs to resume this scheduler
        mid-stream: horizons, task counts, the book's live entries
        ``[tid, machine, start, end]``, the release watermark, realised
        service times, the policy's :meth:`state_dict` under ``policy``
        and — for randomised policies — the RNG state, so post-restore
        draws continue the crashed process's sequence exactly."""
        state: dict[str, Any] = {
            "completions": {str(j): c for j, c in self.completions.items()},
            "task_counts": {str(j): c for j, c in self.task_counts.items()},
            "book": [[tid, *entry] for tid, entry in sorted(self._live.items())],
            "last_release": self._last_release,
        }
        if self._service:
            state["service"] = {str(t): d for t, d in self._service.items()}
        rng = self._rng()
        if rng is not None:
            state["rng_state"] = rng.bit_generator.state
        policy = self.state_dict()
        if policy:
            state["policy"] = policy
        return state

    def load_book_state(self, state: Mapping[str, Any]) -> None:
        """Restore :meth:`book_state` output onto a fresh scheduler of
        the same kind."""
        self.completions = {int(j): float(c) for j, c in state["completions"].items()}
        self.task_counts = {int(j): int(c) for j, c in state["task_counts"].items()}
        self._load_book(state["book"])
        self._last_release = float(state["last_release"])
        self._service = {int(t): float(d) for t, d in state.get("service", {}).items()}
        if "policy" in state:
            self.load_state_dict(state["policy"])
        if "rng_state" in state:
            rng = self._rng()
            if rng is None:
                raise ValueError(
                    "snapshot carries RNG state but the scheduler has no rng — "
                    "recovery must be wired with the same scheduler kind"
                )
            rng.bit_generator.state = state["rng_state"]

    def retract(self, tid: int, now: float) -> None:
        """Undo ``tid``'s placement if still live at ``now``: drop its
        entry and one task count, shrink the horizon to its start only
        if it is the tail (a mid-queue hole stays, so later bookings
        never overlap), then call :meth:`on_retract`."""
        self.outstanding(now)
        entry = self._live.pop(tid, None)
        if entry is None:
            return
        machine, start, end = entry
        self._counts[machine] -= 1
        self.task_counts[machine] -= 1
        if self.completions[machine] == end:
            self.completions[machine] = start
        self.on_retract(tid, machine, start, end)

    def delay(self, machine: int, now: float, idle: float) -> None:
        """Book ``idle`` time on ``machine`` from ``now`` or its horizon,
        whichever is later: the next task it gets starts no earlier
        (a joining replica's cache warm-up)."""
        self.completions[machine] = max(self.completions[machine], now) + idle

    def place(self, task: Task) -> DispatchRecord:
        """Decide and book one released task (tasks must arrive in
        release order) without recording the placement: the book
        (retired at the release), horizons, task counts and service
        times move, the placement records do not.  Callers that keep
        their own records (the serve ``Dispatcher``) use this;
        :meth:`submit` adds the records."""
        if task.release < self._last_release:
            raise ValueError(
                f"task {task.tid} released at {task.release} submitted after a task "
                f"released at {self._last_release}; online submission must follow release order"
            )
        self._last_release = task.release
        self.outstanding(task.release)
        eligible = task.eligible(self.m)
        if not eligible:
            raise ValueError(f"task {task.tid} has an empty processing set")
        machine, tie_set = self.choose(task)
        if machine not in eligible:
            raise ValueError(
                f"{type(self).__name__} picked machine {machine} outside the "
                f"processing set {sorted(eligible)} of task {task.tid}"
            )
        start = max(task.release, self.completions[machine])
        self._book(task, machine, start)
        return DispatchRecord(task=task, machine=machine, start=start, tie_set=tie_set)

    def submit(self, task: Task) -> DispatchRecord:
        """Dispatch one released task (tasks must arrive in release
        order): :meth:`place`, then record the placement for
        :meth:`schedule`."""
        record = self.place(task)
        self._tasks.append(task)
        self._machines.append(record.machine)
        self._starts.append(record.start)
        return record

    def book_drain(
        self,
        tasks: Sequence[Task],
        machines: list[int],
        starts: list[float],
        ends: np.ndarray,
        horizons: Sequence[float],
        counts: Sequence[int],
    ) -> None:
        """Book a whole drain decided elsewhere onto this fresh
        scheduler, leaving it exactly as :meth:`submit` of each task in
        turn would have: ``tasks`` in release order placed on
        ``machines`` from ``starts`` and ending at ``ends`` (each at its
        ``proc``), ``horizons`` and ``counts`` the per-machine
        completion times and task counts after the drain (indexed by
        machine, index 0 unused).  The ``machines`` and ``starts``
        lists become the placement records as they are, not copied."""
        m = self.m
        self.completions = {j: horizons[j] for j in range(1, m + 1)}
        self.task_counts = {j: int(counts[j]) for j in range(1, m + 1)}
        self._tasks = list(tasks)
        self._machines, self._starts = machines, starts
        last = self._last_release = tasks[-1].release
        # Each release retires the entries ended by then, so what the
        # last one left open stays, and the last task itself.
        live = (ends > last).nonzero()[0].tolist()
        if not live or live[-1] != len(tasks) - 1:
            live.append(len(tasks) - 1)
        self._load_book((tasks[i].tid, machines[i], starts[i], ends[i]) for i in live)

    # -- state inspection ---------------------------------------------------
    def waiting_work(self, t: float) -> dict[int, float]:
        """Remaining allocated work per machine at time ``t``:
        :math:`w_t(j) = \\max(0, C_{j} - t)` (the *schedule profile*
        of Theorem 8, up to the in-service task convention)."""
        return {j: max(0.0, c - t) for j, c in self.completions.items()}

    def schedule(self) -> Schedule:
        """Materialise the schedule of everything submitted so far.

        Service-aware policies yield a *derived* instance whose
        processing times are the realised execution times, so standard
        metrics and :meth:`~repro.core.schedule.Schedule.validate`
        apply unchanged.
        """
        inst = Instance(m=self.m, tasks=realised(self._tasks, self._service))
        tids = [t.tid for t in self._tasks]
        return Schedule(inst, dict(zip(tids, zip(self._machines, self._starts))))

    @property
    def n_dispatched(self) -> int:
        """Tasks recorded by :meth:`submit` (:meth:`place` records none)."""
        return len(self._tasks)

    @property
    def fresh(self) -> bool:
        """Whether no task has been placed or booked yet — judged from
        the state every booking writes (release watermark, task counts,
        horizons), so a scheduler used through :meth:`place` or a
        re-placement is not fresh either."""
        return (
            self._last_release == 0.0
            and not any(self.task_counts.values())
            and not any(self.completions.values())
        )

    def run(self, instance: Instance) -> Schedule:
        """Replay a full instance in release order and return the schedule."""
        if instance.m != self.m:
            raise ValueError(f"instance has m={instance.m}, scheduler has m={self.m}")
        for task in instance:
            self.submit(task)
        if self._service:
            return self.schedule()
        return Schedule.from_arrays(instance, self._machines, self._starts)
