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
``run`` are not queued here at feed time: they wait in the simulator's
release feed and take their ``seq`` when the reference loop
materialises them (one :meth:`EventQueue.extend`, in feed order).
``seq`` only breaks ties within one kind, so the firing order is the
same as if each had been pushed when it was fed.
"""

from __future__ import annotations

import heapq
import itertools
from enum import Enum, auto
from typing import Any, Iterable, Iterator, NamedTuple

__all__ = ["EventKind", "Event", "EventQueue"]


class EventKind(Enum):
    """Kinds of simulator events."""

    RELEASE = auto()  #: a task enters the system
    COMPLETE = auto()  #: a machine finishes a task
    OBSERVE = auto()  #: a user/adversary callback fires
    MACHINE_DOWN = auto()  #: a machine fails (fault injection)
    MACHINE_UP = auto()  #: a failed machine recovers
    PREEMPT = auto()  #: re-evaluate a machine's running task (preemptive policies)


#: Same-instant firing order (lower fires first): recoveries make
#: machines usable, completions free machines (a completion at the
#: exact failure instant still counts — the work was done), failures
#: take machines out *before* the instant's releases dispatch,
#: preemption checks fire after the *whole* same-instant release batch
#: has dispatched (one deterministic re-evaluation per machine, not
#: one per arrival; a machine a check frees is re-filled inside the
#: check), then observers see the settled instant.  Starts are not
#: events: a machine starts its next task inside the handler that
#: freed it or queued the task.
_KIND_PRIORITY: dict[EventKind, int] = {
    EventKind.MACHINE_UP: 0,
    EventKind.COMPLETE: 1,
    EventKind.MACHINE_DOWN: 2,
    EventKind.RELEASE: 3,
    EventKind.PREEMPT: 4,
    EventKind.OBSERVE: 5,
}


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
    (COMPLETE < RELEASE < OBSERVE, FIFO within a kind)."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()

    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event; returns the event object."""
        ev = _new_event(Event, (time, _KIND_PRIORITY[kind], next(self._counter), kind, payload))
        heapq.heappush(self._heap, ev)
        return ev

    def extend(self, kind: EventKind, items: Iterable[tuple[float, Any]]) -> None:
        """Schedule one event of ``kind`` per ``(time, payload)`` item.

        Equivalent to one :meth:`push` per item in ``items`` order (the
        seqs follow it, so same-instant items fire in the order given),
        but builds the heap with a single ``heapify`` instead of one
        sift per event.
        """
        priority = _KIND_PRIORITY[kind]
        counter = self._counter
        self._heap.extend(
            _new_event(Event, (time, priority, next(counter), kind, payload))
            for time, payload in items
        )
        heapq.heapify(self._heap)

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        return heapq.heappop(self._heap)

    def peek_time(self) -> float | None:
        """Time of the earliest pending event, or ``None`` if empty."""
        return self._heap[0].time if self._heap else None

    _NON_WORK = frozenset({EventKind.OBSERVE, EventKind.MACHINE_DOWN, EventKind.MACHINE_UP})

    def has_work(self) -> bool:
        """Whether any *work* event (RELEASE/START/COMPLETE, as opposed
        to OBSERVE callbacks or fault transitions) is still pending."""
        return any(ev.kind not in self._NON_WORK for ev in self._heap)

    def __iter__(self) -> Iterator[Event]:
        """The pending events, in heap (not firing) order."""
        return iter(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
