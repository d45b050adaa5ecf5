"""One shard's books: the dispatch decision core of the serving layer.

:class:`Dispatcher` is a *synchronous, virtual-clocked* wrapper around
an :class:`~repro.core.dispatch.ImmediateDispatchScheduler`: every
placement decision is a pure function of the admitted request stream
(release times stamped by the workload, not the wall clock), which is
what makes the service deterministic and shadow-checkable:

* **determinism** — two live runs over the same request stream produce
  identical task→machine assignments, whatever the wall-clock jitter,
  because the asyncio layer (:mod:`repro.serve.frontend`) only *enacts*
  decisions taken here;
* **shadow mode** — feeding a recorded arrival stream through
  :meth:`submit` reproduces the discrete-event
  :class:`~repro.simulation.engine.Simulator` exactly, decision for
  decision, since both drive the *same* scheduler decision step
  (:meth:`~repro.core.dispatch.ImmediateDispatchScheduler.place`, which
  the simulator's ``submit`` wraps; the test suite's shadow oracle,
  ``tests/oracles.py``, turns this into a byte-identity check against
  the golden traces).

A dispatcher keeps one shard's records and nothing else: committed
placements, its machines' alive bits and its admission review.  The
committed work per machine (horizons, queue depths) is the scheduler's
one book, written through its non-recording ``place`` and undone only
by its ``retract``.  The failure rule — parking, unparking in park
order, earliest-finish placement, shedding unavailable work, rebalance
— belongs to the fleet surface, :class:`~repro.serve.shard.router.
ShardRouter`, which picks the machine and hands it to :meth:`commit`.
The dispatcher records every request under its original task; the
scheduler decides on a restricted copy where its view is narrower than
the set — a straddler's owner fragment (the router passes it) and, when
some of those machines are dead, their alive subset (the engine's
degraded dispatch).  Each :class:`DispatchDecision` it returns carries
the dispatcher's shard id, stamped once at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from ..core.dispatch import ImmediateDispatchScheduler
from ..core.schedule import Schedule
from ..core.task import Instance, Task
from .admission import AdmissionController
from .metrics import ServeMetrics, decision_counters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .journal import Journal, Recovery
    from .shard.router import ShardRouter

__all__ = [
    "DISPATCHED",
    "PARKED",
    "REQUEUED",
    "SHED",
    "DispatchDecision",
    "Dispatcher",
]

DISPATCHED = "dispatched"
SHED = "shed"
PARKED = "parked"
REQUEUED = "requeued"


@dataclass(frozen=True, slots=True)
class DispatchDecision:
    """Outcome of one submitted request.

    ``status`` is one of :data:`DISPATCHED` (placed on ``machine`` with
    analytic ``start`` and ``est_flow``), :data:`SHED` (rejected;
    ``reason`` says why), :data:`PARKED` (whole processing set down,
    held for a revival) or :data:`REQUEUED` (placed by the failure /
    unpark path rather than the scheduler).  ``task`` is always the
    original request; ``shard`` is the shard that decided it (``None``
    for the router's own park/shed decisions and for a dispatcher
    outside a fleet) and ``handoff`` marks a failure-path placement on
    a shard other than the set's owner.
    """

    task: Task
    status: str
    machine: int | None = None
    start: float | None = None
    est_flow: float | None = None
    reason: str | None = None
    shard: int | None = None
    handoff: bool = False


class Dispatcher:
    """One shard's virtual-clocked books.

    Parameters
    ----------
    scheduler:
        The dispatch policy (e.g. :class:`repro.core.eft.EFT` with any
        tie-break).  The dispatcher calls ``scheduler.place`` for every
        admitted fresh release: the scheduler's horizons stay
        authoritative — the decision step the simulator uses — while
        the placements are booked here only.
    admission:
        Optional :class:`~repro.serve.admission.AdmissionController`;
        reviewed *before* the scheduler sees the request, so shed
        requests perturb nothing (not even a random tie-break draw).
    metrics:
        The :class:`~repro.serve.metrics.ServeMetrics` its counts live
        in (a fresh one by default).
    shard:
        The shard id a fleet router gives this dispatcher; stamped on
        every decision it returns.
    """

    def __init__(
        self,
        scheduler: ImmediateDispatchScheduler,
        admission: AdmissionController | None = None,
        metrics: ServeMetrics | None = None,
        shard: int | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.shard = shard
        self.m = scheduler.m
        self.admission = admission if (admission is None or admission.enabled) else None
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.alive: set[int] = set(range(1, self.m + 1))
        #: committed placements ``tid -> (machine, start)`` of every
        #: dispatched/requeued task — the dispatcher's own records, so
        #: :meth:`schedule` never reaches into scheduler internals.
        self.placements: dict[int, tuple[int, float]] = {}
        self._tasks: dict[int, Task] = {}

    # -- analytic state -----------------------------------------------------
    def depth(self, machine: int, now: float) -> int:
        """Number of requests committed to ``machine`` and analytically
        uncompleted at ``now`` (completions at exactly ``now`` have
        left the queue — the half-open convention of the engine): the
        scheduler's live book entries there."""
        return self.scheduler.outstanding(now)[machine]

    def waiting_work(self, machine: int, now: float) -> float:
        """Committed-but-unfinished work on ``machine`` at ``now`` —
        the :math:`w_t(j)` the admission SLO is keyed to."""
        return max(0.0, self.scheduler.completions[machine] - now)

    # -- the decision path ---------------------------------------------------
    def submit(
        self, task: Task, fragment: frozenset[int] | None = None
    ) -> DispatchDecision | None:
        """Decide one fresh release over the alive machines of
        ``fragment`` — this shard's part of a straddling set; default
        the whole set (requests must arrive in release order, the
        online contract of the underlying scheduler).  Returns ``None``,
        touching nothing, when none of them is alive — the router's
        failure path takes it."""
        eligible = task.eligible(self.m)
        candidates = eligible if fragment is None else fragment
        if len(self.alive) < self.m:
            alive = candidates & self.alive
            if not alive:
                return None
            if alive != candidates:
                candidates = alive
        if self.admission is not None:
            reason = self.admission.review(task, candidates, self)
            if reason is not None:
                self.metrics.on_shed(reason)
                return DispatchDecision(task=task, status=SHED, reason=reason, shard=self.shard)
        # The scheduler decides on the restricted view while the
        # original task stays authoritative here.
        sub = task if candidates is eligible else task.restricted_to(candidates)
        record = self.scheduler.place(sub)
        return self._commit(task, record.machine, record.start, DISPATCHED)

    def commit(
        self, task: Task, machine: int, now: float, reason: str, handoff: bool = False
    ) -> DispatchDecision:
        """Book a displaced ``task`` (failure, unpark, migration) onto
        ``machine``, which the router chose by its failure rule,
        starting no earlier than ``now`` (``handoff``: the machine is
        not on the set's owner shard).  The scheduler's release-order
        ``place`` contract does not cover re-placement, so the task
        goes through its booking step directly, charged on ``machine``:
        horizon, ``est_flow``, depth and the live worker read that.
        ``task`` holds no booking: the router's ``redispatch`` unbooks
        the whole displaced batch first."""
        start = max(now, self.scheduler.completions[machine])
        self.scheduler._book(task, machine, start)
        self.metrics.on_requeue()
        return self._commit(task, machine, start, REQUEUED, reason, handoff)

    def _commit(
        self, task: Task, machine: int, start: float, status: str,
        reason: str | None = None, handoff: bool = False,
    ) -> DispatchDecision:
        """Record ``task``, which the scheduler just booked on
        ``machine`` from ``start``, and its ``est_flow`` (the booked
        end — the machine's new horizon — less the release)."""
        self.placements[task.tid] = (machine, start)
        self._tasks[task.tid] = task
        est_flow = self.scheduler.completions[machine] - task.release
        self.metrics.on_dispatch(machine, est_flow, self.depth(machine, task.release))
        return DispatchDecision(
            task=task, status=status, machine=machine, start=start,
            est_flow=est_flow, reason=reason, shard=self.shard, handoff=handoff,
        )

    # -- rebalance surface ---------------------------------------------------
    def withdraw(self, tid: int, now: float) -> Task | None:
        """Remove a committed-but-unstarted request (analytic ``start``
        after ``now``; a running one stays where its data is) from the
        books so it can be re-placed — the migration half of a
        rebalance, or the drain of a dead machine — and return it
        (``None`` if unknown or started).  The scheduler's ``retract``
        unwinds its booking: a tail shrinks the horizon, a mid-queue
        withdrawal leaves a deterministic idle hole."""
        placed = self.placements.get(tid)
        if placed is None or placed[1] <= now:
            return None
        task = self._tasks[tid]
        self.unbook(tid, now)
        return task

    def add_replicas(self, machines: Sequence[int], now: float, warmup: float = 0.0) -> None:
        """Charge ``machines`` for joining a replica set: ``warmup`` on
        their committed-work horizon (``max(completions, now) +
        warmup``), then the policy's ``on_replicas_added`` hook.
        Machines outside ``1..m`` are ignored."""
        machines = [j for j in machines if 1 <= j <= self.m]
        if not machines:
            return
        if warmup > 0.0:
            for j in machines:
                self.scheduler.delay(j, now, warmup)
        # Setup-time policies (NC-Setup) invalidate their warm state so
        # widened replicas pay the cache-warmup penalty again; probed,
        # so every other policy is unaffected.
        hook = getattr(self.scheduler, "on_replicas_added", None)
        if hook is not None:
            hook(machines, now)

    # -- fault surface -------------------------------------------------------
    def _check_machine(self, machine: int) -> None:
        if not (1 <= machine <= self.m):
            raise ValueError(f"machine {machine} outside 1..{self.m}")

    def kill(self, machine: int) -> None:
        """Mark ``machine`` dead: it receives no further dispatches.
        Re-placing its queued work is the router's job."""
        self._check_machine(machine)
        if machine not in self.alive:
            return
        self.alive.discard(machine)
        self.metrics.on_kill(machine, len(self.alive))

    def revive(self, machine: int) -> None:
        """Mark ``machine`` alive again (idempotent).  Re-placing parked
        work is the router's job."""
        self._check_machine(machine)
        if machine in self.alive:
            return
        self.alive.add(machine)
        self.metrics.on_revive(machine, len(self.alive))

    # -- results -------------------------------------------------------------
    def task(self, tid: int) -> Task | None:
        """The booked task ``tid`` (``None`` if unknown)."""
        return self._tasks.get(tid)

    def unbook(self, tid: int, now: float) -> None:
        """Drop ``tid`` from the records and retract its placement (a
        no-op for a tid booked elsewhere): a withdrawn request, or one
        of a displaced batch the router is about to re-place."""
        if self.placements.pop(tid, None) is not None:
            del self._tasks[tid]
            self.scheduler.retract(tid, now)

    def schedule(self) -> Schedule:
        """The committed schedule of every dispatched request (shed and
        still-parked requests excluded)."""
        inst = Instance(m=self.m, tasks=tuple(self._tasks.values()))
        return Schedule(inst, dict(self.placements))

    # -- crash recovery ------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """Everything a journal snapshot needs to rebuild this
        dispatcher mid-stream: the books, the alive set, the
        decision-path metrics counters and the scheduler's own block
        (:meth:`~repro.core.dispatch.ImmediateDispatchScheduler.book_state`)."""
        from .protocol import task_to_wire

        return {
            "m": self.m,
            "alive": sorted(self.alive),
            "tasks": [task_to_wire(t) for t in self._tasks.values()],
            "placements": {
                str(tid): [machine, start] for tid, (machine, start) in self.placements.items()
            },
            "metrics": decision_counters(self.metrics.registry),
            "scheduler": self.scheduler.book_state(),
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Restore :meth:`state_dict` output onto this (freshly built)
        dispatcher.  The scheduler must be wired the same way as the
        one that produced the snapshot."""
        from .protocol import task_from_wire

        if int(state["m"]) != self.m:
            raise ValueError(f"snapshot has m={state['m']}, dispatcher has m={self.m}")
        self.alive = set(int(j) for j in state["alive"])
        self._tasks = {t.tid: t for t in (task_from_wire(w) for w in state["tasks"])}
        self.placements = {
            int(tid): (int(machine), float(start))
            for tid, (machine, start) in state["placements"].items()
        }
        if "metrics" in state:
            counts = state["metrics"]
        else:  # a snapshot that kept the three decision counts as ints
            legacy = state["counters"]
            counts = {
                name: legacy[key]
                for name, key in (
                    ("dispatched_total", "n_dispatched"),
                    ("shed_total", "n_shed"),
                    ("requeued_total", "n_requeued"),
                )
                if legacy[key]
            }
        self.metrics.registry.load_counter_values(counts)
        self.scheduler.load_book_state(state["scheduler"])

    @classmethod
    def recover(cls, journal: "Journal", into: "ShardRouter") -> "Recovery":
        """Rebuild a fleet from a write-ahead ``journal``: restore the
        latest snapshot (if any) onto the blank router ``into``, then
        replay the WAL suffix.  The router's plan and scheduler wiring
        must match the crashed process's — replay re-derives every
        decision, byte-for-byte.  Returns the full
        :class:`~repro.serve.journal.Recovery` (the rebuilt router is
        ``recovery.dispatcher``)."""
        from .journal import recover as _recover

        return _recover(journal, lambda: into)
