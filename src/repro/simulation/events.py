"""Event primitives for the discrete-event simulator.

A minimal, allocation-light event core: events are ``(time, priority,
seq, kind, payload)`` named tuples ordered as plain tuples — by time,
then by a fixed per-kind priority, then by a monotone sequence number.

The within-instant order is pinned: at equal times **MACHINE_UP fires
before COMPLETE fires before MACHINE_DOWN fires before RELEASE fires
before PREEMPT fires before OBSERVE**, and events of the same kind fire
in scheduling order (FIFO).  Completions-first (among work events) means a machine that
frees up at :math:`t` is already idle when a task released at
:math:`t` is dispatched — matching the analytic driver, where starts
satisfy :math:`\\sigma_i = \\max(r_i, \\text{avail}_j)` with no notion
of event order.  Releases-before-observers means an OBSERVE callback
always sees the settled state of its instant (collectors sample after
same-time arrivals; adversaries inject *after* the instant's natural
events, in scheduling order).  The FIFO tie-break within a kind is
what the paper's adversaries rely on (tasks released "in order" at the
same instant).

The fault events bracket the instant's work: a machine recovering at
:math:`t` (MACHINE_UP first) is usable by that instant's releases, a
task completing exactly when its machine fails (COMPLETE before
MACHINE_DOWN) counts as completed — the work was done by :math:`t` —
and a task released at the failure instant (MACHINE_DOWN before
RELEASE) already sees the machine as dead.

Releases fed to a :class:`~repro.simulation.engine.Simulator` before
``run`` never enter this queue: the reference loop walks its
release-sorted feed with a cursor and merges it with the heap, taking
the feed's head when ``(release, RELEASE priority, seq)`` sorts before
the heap's earliest event.  That ``seq`` is virtual: the run that
starts streaming the feed takes one block of seqs for it
(:meth:`EventQueue.reserve`), the seqs one push per task would have
taken then, in release order, and a ``run(until=)`` cutoff keeps them.
So the fed releases fire exactly where pushed RELEASE events would, and
the heap holds only COMPLETE, fault, PREEMPT and OBSERVE events plus
the releases callbacks inject.
"""

from __future__ import annotations

import heapq
import itertools
from enum import Enum
from typing import Any, Iterator, NamedTuple

__all__ = ["EventKind", "Event", "EventQueue"]


class EventKind(Enum):
    """Kinds of simulator events, in same-instant firing order.  A
    member's value is its :attr:`priority`, that rank (lower fires
    first): recoveries make machines usable, completions free machines (a
    completion at the exact failure instant still counts — the work was
    done), failures take machines out *before* the instant's releases
    dispatch, preemption checks fire after the *whole* same-instant
    release batch has dispatched (one deterministic re-evaluation per
    machine, not one per arrival; a machine a check frees is re-filled
    inside the check), then observers see the settled instant.  Starts
    are not events: a machine starts its next task inside the handler
    that freed it or queued the task."""

    MACHINE_UP = 0  #: a failed machine recovers
    COMPLETE = 1  #: a machine finishes a task
    MACHINE_DOWN = 2  #: a machine fails (fault injection)
    RELEASE = 3  #: a task enters the system
    PREEMPT = 4  #: re-evaluate a machine's running task (preemptive policies)
    OBSERVE = 5  #: a user/adversary callback fires

    def __init__(self, priority: int) -> None:
        # a plain attribute: push reads it without hashing the member
        # (Enum.__hash__ is a Python-level call)
        self.priority = priority


#: Same-instant firing order, kind -> :attr:`EventKind.priority`.
_KIND_PRIORITY: dict[EventKind, int] = {kind: kind.priority for kind in EventKind}


class Event(NamedTuple):
    """A scheduled simulator event.  Ordered as a plain tuple: by time,
    then kind priority, then seq (unique, so the comparison never
    reaches ``kind`` or ``payload``)."""

    time: float
    priority: int
    seq: int
    kind: EventKind
    payload: Any = None


_new_event = tuple.__new__  # skips NamedTuple's Python-level __new__ per push


class EventQueue:
    """Binary-heap event queue with pinned within-time ordering
    (the :class:`EventKind` priorities, FIFO within a kind)."""

    def __init__(self) -> None:
        #: the binary heap itself; callers only read it (the simulator
        #: merges its release stream against ``heap[0]``)
        self.heap: list[Event] = []
        self._counter = itertools.count()

    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event; returns the event object."""
        ev = _new_event(Event, (time, kind.priority, next(self._counter), kind, payload))
        heapq.heappush(self.heap, ev)
        return ev

    def reserve(self, n: int) -> int:
        """Take the next ``n`` seqs for events kept outside the heap;
        returns the first.  Later pushes number after them, as if ``n``
        events had been pushed now."""
        first = next(self._counter)
        self._counter = itertools.count(first + n)
        return first

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        return heapq.heappop(self.heap)

    _NON_WORK = frozenset({EventKind.OBSERVE, EventKind.MACHINE_DOWN, EventKind.MACHINE_UP})

    def has_work(self) -> bool:
        """Whether any *work* event (RELEASE/COMPLETE/PREEMPT, as
        opposed to OBSERVE callbacks or fault transitions) is still
        queued (a simulator's unfired fed releases are not queued here)."""
        return any(ev.kind not in self._NON_WORK for ev in self.heap)

    def __iter__(self) -> Iterator[Event]:
        """The pending events, in heap (not firing) order."""
        return iter(self.heap)

    def __len__(self) -> int:
        return len(self.heap)

    def __bool__(self) -> bool:
        return bool(self.heap)
