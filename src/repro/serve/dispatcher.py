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

A dispatcher keeps one shard's books and nothing else: committed
placements, in-flight depths, its machines' alive bits and its
admission review.  These are the serve tier's only per-request books:
the scheduler is driven through its non-recording ``place``, so it
holds horizons, task counts and service times but no copy of the
request.  The failure rule — parking, unparking in park order,
earliest-finish placement, shedding unavailable work, rebalance —
belongs to the fleet surface, :class:`~repro.serve.shard.router.
ShardRouter`, which picks the machine and hands it to :meth:`commit`.
A partially-dead processing set restricts the scheduler's view to the
alive machines (the engine's degraded dispatch).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
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
        #: dispatched/requeued task — the dispatcher's own books, so
        #: :meth:`schedule` never reaches into scheduler internals.
        self.placements: dict[int, tuple[int, float]] = {}
        self._tasks: dict[int, Task] = {}
        #: per-machine min-heap of analytic completion times — the
        #: uncompleted-request depth used by bounded-queue admission.
        self._inflight: dict[int, list[float]] = {j: [] for j in range(1, self.m + 1)}
        self.n_dispatched = 0
        self.n_shed = 0
        self.n_requeued = 0

    # -- analytic state -----------------------------------------------------
    def depth(self, machine: int, now: float) -> int:
        """Number of requests committed to ``machine`` and analytically
        uncompleted at ``now`` (completions at exactly ``now`` have
        left the queue — the half-open convention of the engine)."""
        heap = self._inflight[machine]
        while heap and heap[0] <= now:
            heappop(heap)
        return len(heap)

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
        service = self.scheduler.service_of(task.tid, task.proc)
        return self._commit(task, record.machine, record.start, service, DISPATCHED)

    def commit(self, task: Task, machine: int, now: float, reason: str) -> DispatchDecision:
        """Book a displaced ``task`` (failure, unpark, migration) onto
        ``machine``, which the router chose by its failure rule,
        starting no earlier than ``now``.  The scheduler's release-order
        ``place`` contract does not cover re-placement, so the task
        goes through its booking step directly, charged on ``machine``:
        horizon, ``est_flow``, depth and the live worker read that."""
        start = max(now, self.scheduler.completions[machine])
        service = self.scheduler._book(task, machine, start)
        self.n_requeued += 1
        if self.metrics is not None:
            self.metrics.on_requeue()
        return self._commit(task, machine, start, service, REQUEUED, reason=reason)

    def _commit(
        self,
        task: Task,
        machine: int,
        start: float,
        service: float,
        status: str,
        reason: str | None = None,
    ) -> DispatchDecision:
        """Book ``task`` on ``machine`` for ``service`` time units from
        ``start``: its ``est_flow`` and its in-flight depth entry."""
        end = start + service
        heappush(self._inflight[machine], end)
        self.placements[task.tid] = (machine, start)
        self._tasks[task.tid] = task
        est_flow = end - task.release
        self.n_dispatched += 1
        if self.metrics is not None:
            self.metrics.on_dispatch(machine, est_flow, self.depth(machine, task.release))
        return DispatchDecision(
            task=task, status=status, machine=machine, start=start,
            est_flow=est_flow, reason=reason,
        )

    # -- rebalance surface ---------------------------------------------------
    def withdraw(self, tid: int, now: float) -> Task | None:
        """Remove a committed-but-unstarted request from the books so it
        can be re-placed (the migration half of a rebalance, or the
        drain of a dead machine).

        Only requests whose analytic ``start`` is strictly after ``now``
        can be withdrawn — a request already running stays where its
        data is.  Returns the task, or ``None`` if it is unknown or
        already started.

        Completion unwinding is deliberately conservative: if the
        withdrawn request was the machine's committed tail
        (``completions == start + service``, the booked service time)
        the tail shrinks to ``start`` (remaining work finishes no later
        than that); a mid-queue withdrawal leaves ``completions``
        untouched, keeping a deterministic idle hole rather than
        inventing an earlier finish that later commits might overlap.
        """
        placed = self.placements.get(tid)
        if placed is None:
            return None
        machine, start = placed
        if start <= now:
            return None
        task = self._tasks.pop(tid)
        del self.placements[tid]
        end = start + self.scheduler.service_of(tid, task.proc)
        if self.scheduler.completions[machine] == end:
            self.scheduler.completions[machine] = start
        self.scheduler.task_counts[machine] -= 1
        heap = self._inflight[machine]
        try:
            heap.remove(end)
            heapify(heap)
        except ValueError:  # pragma: no cover - popped by a depth() probe
            pass
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

    def unbook(self, tid: int) -> None:
        """Drop ``tid`` from the books only (scheduler state untouched):
        a displaced request another dispatcher has re-placed."""
        self.placements.pop(tid, None)
        self._tasks.pop(tid, None)

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
        counts, release watermark, realised service times, the policy's
        own ``state_dict()`` under ``policy``, and — for randomised
        tie-breaks — the RNG state, so post-restore draws continue the
        crashed process's sequence exactly)."""
        from .protocol import task_to_wire

        scheduler_state: dict[str, Any] = {
            "completions": {str(j): c for j, c in self.scheduler.completions.items()},
            "task_counts": {str(j): c for j, c in self.scheduler.task_counts.items()},
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
            "inflight": {str(j): sorted(h) for j, h in self._inflight.items()},
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
        self._inflight = {int(j): list(h) for j, h in state["inflight"].items()}
        for heap in self._inflight.values():
            heapify(heap)
        counters = state["counters"]
        self.n_dispatched = int(counters["n_dispatched"])
        self.n_shed = int(counters["n_shed"])
        self.n_requeued = int(counters["n_requeued"])
        sched = state["scheduler"]
        self.scheduler.completions = {int(j): float(c) for j, c in sched["completions"].items()}
        self.scheduler.task_counts = {int(j): int(c) for j, c in sched["task_counts"].items()}
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
