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
  the simulator's ``submit`` wraps; :mod:`repro.serve.shadow` turns this
  into a byte-identity check against the golden traces).

A dispatcher keeps one shard's records and nothing else: committed
placements, its machines' alive bits and its admission review.  The
committed work per machine (horizons, queue depths) is the scheduler's
one book, written through its non-recording ``place`` and undone only
by its ``retract``.  The failure rule — parking, unparking in park
order, earliest-finish placement, shedding unavailable work, rebalance
— belongs to the fleet surface, :class:`~repro.serve.shard.router.
ShardRouter`, which picks the machine and hands it to :meth:`commit`.
A partially-dead processing set restricts the scheduler's view to the
alive machines (the engine's degraded dispatch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from ..core.dispatch import ImmediateDispatchScheduler
from ..core.schedule import Schedule
from ..core.task import Instance, Task
from .admission import AdmissionController
from .metrics import ServeMetrics

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
    unpark path rather than the scheduler).
    """

    task: Task
    status: str
    machine: int | None = None
    start: float | None = None
    est_flow: float | None = None
    reason: str | None = None


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
        Optional :class:`~repro.serve.metrics.ServeMetrics`.
    """

    def __init__(
        self,
        scheduler: ImmediateDispatchScheduler,
        admission: AdmissionController | None = None,
        metrics: ServeMetrics | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.m = scheduler.m
        self.admission = admission if (admission is None or admission.enabled) else None
        self.metrics = metrics
        self.alive: set[int] = set(range(1, self.m + 1))
        #: committed placements ``tid -> (machine, start)`` of every
        #: dispatched/requeued task — the dispatcher's own records, so
        #: :meth:`schedule` never reaches into scheduler internals.
        self.placements: dict[int, tuple[int, float]] = {}
        self._tasks: dict[int, Task] = {}
        self.n_dispatched = 0
        self.n_shed = 0
        self.n_requeued = 0

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
    def submit(self, task: Task) -> DispatchDecision | None:
        """Decide one fresh release over the alive view (requests must
        arrive in release order, the online contract of the underlying
        scheduler).  Returns ``None``, touching nothing, when no machine
        of the set is alive — the router's failure path takes it."""
        candidates = task.eligible(self.m)
        sub = task
        if len(self.alive) < self.m:
            alive = candidates & self.alive
            if not alive:
                return None
            if alive != candidates:
                # Degraded dispatch over the alive subset, as in the
                # engine: the scheduler decides on the restricted view
                # while the original task stays authoritative here.
                candidates, sub = alive, task.restricted_to(alive)
        if self.admission is not None:
            reason = self.admission.review(task, candidates, self)
            if reason is not None:
                self.n_shed += 1
                if self.metrics is not None:
                    self.metrics.on_shed(reason)
                return DispatchDecision(task=task, status=SHED, reason=reason)
        record = self.scheduler.place(sub)
        return self._commit(task, record.machine, record.start, DISPATCHED)

    def commit(self, task: Task, machine: int, now: float, reason: str) -> DispatchDecision:
        """Book a displaced ``task`` (failure, unpark, migration) onto
        ``machine``, which the router chose by its failure rule,
        starting no earlier than ``now``.  The scheduler's release-order
        ``place`` contract does not cover re-placement, so the task
        goes through its booking step directly, charged on ``machine``:
        horizon, ``est_flow``, depth and the live worker read that.  A
        placement ``task`` still holds here is retracted first."""
        self.scheduler.retract(task.tid, now)
        start = max(now, self.scheduler.completions[machine])
        self.scheduler._book(task, machine, start)
        self.n_requeued += 1
        if self.metrics is not None:
            self.metrics.on_requeue()
        return self._commit(task, machine, start, REQUEUED, reason=reason)

    def _commit(
        self, task: Task, machine: int, start: float, status: str, reason: str | None = None
    ) -> DispatchDecision:
        """Record ``task``, which the scheduler just booked on
        ``machine`` from ``start``, and its ``est_flow`` (the booked end
        less the release)."""
        self.placements[task.tid] = (machine, start)
        self._tasks[task.tid] = task
        est_flow = self.scheduler._live[task.tid][2] - task.release
        self.n_dispatched += 1
        if self.metrics is not None:
            self.metrics.on_dispatch(machine, est_flow, self.depth(machine, task.release))
        return DispatchDecision(
            task=task, status=status, machine=machine, start=start,
            est_flow=est_flow, reason=reason,
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
                self.scheduler.completions[j] = max(self.scheduler.completions[j], now) + warmup
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
        if self.metrics is not None:
            self.metrics.on_kill(machine, len(self.alive))

    def revive(self, machine: int) -> None:
        """Mark ``machine`` alive again (idempotent).  Re-placing parked
        work is the router's job."""
        self._check_machine(machine)
        if machine in self.alive:
            return
        self.alive.add(machine)
        if self.metrics is not None:
            self.metrics.on_revive(machine, len(self.alive))

    # -- results -------------------------------------------------------------
    def task(self, tid: int) -> Task | None:
        """The booked task ``tid`` (``None`` if unknown)."""
        return self._tasks.get(tid)

    def unbook(self, tid: int, now: float) -> None:
        """Drop ``tid`` from the records and retract its placement (a
        no-op for a tid booked elsewhere): a withdrawn request, or a
        displaced one another dispatcher has re-placed."""
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
        dispatcher mid-stream: the books, the alive set, and the
        scheduler's decision-relevant state (completion horizons, task
        counts, the book's live entries ``[tid, machine, start, end]``,
        release watermark, realised service times, the policy's
        own ``state_dict()`` under ``policy``, and — for randomised
        tie-breaks — the RNG state, so post-restore draws continue the
        crashed process's sequence exactly)."""
        from .protocol import task_to_wire

        scheduler_state: dict[str, Any] = {
            "completions": {str(j): c for j, c in self.scheduler.completions.items()},
            "task_counts": {str(j): c for j, c in self.scheduler.task_counts.items()},
            "book": [[tid, *entry] for tid, entry in sorted(self.scheduler._live.items())],
            "last_release": self.scheduler._last_release,
        }
        if self.scheduler._service:
            scheduler_state["service"] = {str(t): d for t, d in self.scheduler._service.items()}
        cursor = getattr(self.scheduler, "_cursor", None)
        if cursor is not None:
            scheduler_state["cursor"] = cursor
        rng = getattr(self.scheduler, "rng", None)
        if rng is None:
            rng = getattr(getattr(self.scheduler, "tiebreak", None), "rng", None)
        if rng is not None:
            scheduler_state["rng_state"] = rng.bit_generator.state
        policy_state = self.scheduler.state_dict()
        if policy_state:
            scheduler_state["policy"] = policy_state
        return {
            "m": self.m,
            "alive": sorted(self.alive),
            "tasks": [task_to_wire(t) for t in self._tasks.values()],
            "placements": {
                str(tid): [machine, start] for tid, (machine, start) in self.placements.items()
            },
            "counters": {
                "n_dispatched": self.n_dispatched,
                "n_shed": self.n_shed,
                "n_requeued": self.n_requeued,
            },
            "scheduler": scheduler_state,
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
        counters = state["counters"]
        self.n_dispatched = int(counters["n_dispatched"])
        self.n_shed = int(counters["n_shed"])
        self.n_requeued = int(counters["n_requeued"])
        sched = state["scheduler"]
        self.scheduler.completions = {int(j): float(c) for j, c in sched["completions"].items()}
        self.scheduler.task_counts = {int(j): int(c) for j, c in sched["task_counts"].items()}
        self.scheduler._load_book(sched["book"])
        self.scheduler._last_release = float(sched["last_release"])
        self.scheduler._service = {int(t): float(d) for t, d in sched.get("service", {}).items()}
        if "policy" in sched:
            self.scheduler.load_state_dict(sched["policy"])
        if "cursor" in sched and hasattr(self.scheduler, "_cursor"):
            self.scheduler._cursor = int(sched["cursor"])
        if "rng_state" in sched:
            rng = getattr(self.scheduler, "rng", None)
            if rng is None:
                rng = getattr(getattr(self.scheduler, "tiebreak", None), "rng", None)
            if rng is None:
                raise ValueError(
                    "snapshot carries RNG state but the scheduler has no rng — "
                    "recovery must be wired with the same scheduler kind"
                )
            rng.bit_generator.state = sched["rng_state"]

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
