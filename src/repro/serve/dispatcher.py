"""The dispatch decision core of the serving layer.

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
  decision, since both drive the *same* scheduler object through the
  same ``submit`` contract (:mod:`repro.serve.shadow` turns this into a
  byte-identity check against the golden traces).

Fault handling mirrors the engine's degraded dispatch: a request whose
eligible set intersected with the alive machines is empty is *parked*
(or shed, with ``on_unavailable="shed"``); a partially-dead set
restricts the scheduler's view to the alive machines.  Failure-time
re-dispatch (:meth:`redispatch`) bypasses the scheduler — whose
``submit`` contract only covers fresh releases in release order — and
places the task on the alive candidate with the least committed work,
smallest index on ties, exactly like the engine's failure path.
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

#: reason attached to requests rejected because their whole processing
#: set was down (only with ``on_unavailable="shed"``).
SHED_UNAVAILABLE = "unavailable"


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
    """Virtual-clocked immediate-dispatch decision engine.

    Parameters
    ----------
    scheduler:
        The dispatch policy (e.g. :class:`repro.core.eft.EFT` with any
        tie-break).  The dispatcher calls ``scheduler.submit`` for every
        admitted fresh release, so the scheduler's bookkeeping stays
        authoritative — the same integration contract the simulator
        uses.
    admission:
        Optional :class:`~repro.serve.admission.AdmissionController`;
        reviewed *before* the scheduler sees the request, so shed
        requests perturb nothing (not even a random tie-break draw).
    metrics:
        Optional :class:`~repro.serve.metrics.ServeMetrics`.
    on_unavailable:
        ``"park"`` (default; mirror the engine — hold until a machine
        of the set revives) or ``"shed"`` (reject with reason
        ``"unavailable"``).
    """

    def __init__(
        self,
        scheduler: ImmediateDispatchScheduler,
        admission: AdmissionController | None = None,
        metrics: ServeMetrics | None = None,
        on_unavailable: str = "park",
    ) -> None:
        if on_unavailable not in ("park", "shed"):
            raise ValueError(f"on_unavailable must be 'park' or 'shed', got {on_unavailable!r}")
        self.scheduler = scheduler
        self.m = scheduler.m
        self.admission = admission if (admission is None or admission.enabled) else None
        self.metrics = metrics
        self.on_unavailable = on_unavailable
        self.alive: set[int] = set(range(1, self.m + 1))
        self.parked: list[Task] = []
        self.decisions: list[DispatchDecision] = []
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
    def submit(self, task: Task) -> DispatchDecision:
        """Decide one fresh release (requests must arrive in release
        order, the online contract of the underlying scheduler)."""
        if self.metrics is not None:
            self.metrics.on_request()
        eligible = task.eligible(self.m)
        alive_eligible = eligible & self.alive
        if not alive_eligible:
            if self.on_unavailable == "shed":
                return self._shed(task, SHED_UNAVAILABLE)
            return self._park(task)
        if self.admission is not None:
            reason = self.admission.review(task, alive_eligible, self)
            if reason is not None:
                return self._shed(task, reason)
        if alive_eligible != eligible:
            # Degraded dispatch over the alive subset, as in the engine:
            # the scheduler decides on the restricted view while the
            # original task stays authoritative in our books.
            record = self.scheduler.submit(task.restricted_to(alive_eligible))
        else:
            record = self.scheduler.submit(task)
        return self._commit(task, record.machine, record.start, DISPATCHED)

    def redispatch(self, task: Task, now: float, reason: str = "failure") -> DispatchDecision:
        """Place a displaced task (machine failure, unpark): EFT over
        the engine's authoritative committed work, least waiting work
        wins, smallest index on ties — the engine's failure-path rule.
        Parks again if the whole set is still down."""
        candidates = task.eligible(self.m) & self.alive
        if not candidates:
            return self._park(task)
        machine = min(sorted(candidates), key=lambda j: self.waiting_work(j, now))
        start = max(now, self.scheduler.completions[machine])
        # The scheduler's completion bookkeeping must absorb the
        # re-placement (future EFT decisions see the extra work), but
        # its release-order submit contract does not cover re-dispatch,
        # so the books are updated directly — as the engine does.
        self.scheduler.completions[machine] = start + task.proc
        self.scheduler.task_counts[machine] += 1
        self.n_requeued += 1
        if self.metrics is not None:
            self.metrics.on_requeue()
        return self._commit(task, machine, start, REQUEUED, reason=reason)

    def _commit(
        self, task: Task, machine: int, start: float, status: str, reason: str | None = None
    ) -> DispatchDecision:
        heappush(self._inflight[machine], start + task.proc)
        self.placements[task.tid] = (machine, start)
        self._tasks[task.tid] = task
        est_flow = start + task.proc - task.release
        decision = DispatchDecision(
            task=task, status=status, machine=machine, start=start,
            est_flow=est_flow, reason=reason,
        )
        self.decisions.append(decision)
        self.n_dispatched += 1
        if self.metrics is not None:
            self.metrics.on_dispatch(machine, est_flow, self.depth(machine, task.release))
        return decision

    def _shed(self, task: Task, reason: str) -> DispatchDecision:
        decision = DispatchDecision(task=task, status=SHED, reason=reason)
        self.decisions.append(decision)
        self.n_shed += 1
        if self.metrics is not None:
            self.metrics.on_shed(reason)
        return decision

    def _park(self, task: Task) -> DispatchDecision:
        self.parked.append(task)
        decision = DispatchDecision(task=task, status=PARKED)
        self.decisions.append(decision)
        if self.metrics is not None:
            self.metrics.on_park(len(self.parked))
        return decision

    # -- rebalance surface ---------------------------------------------------
    def withdraw(self, tid: int, now: float) -> Task | None:
        """Remove a committed-but-unstarted request from the books so it
        can be re-placed (the migration half of a rebalance).

        Only requests whose analytic ``start`` is strictly after ``now``
        can be withdrawn — a request already running stays where its
        data is.  Returns the task, or ``None`` if it is unknown or
        already started.

        Completion unwinding is deliberately conservative: if the
        withdrawn request was the machine's committed tail
        (``completions == start + proc``) the tail shrinks to ``start``
        (remaining work finishes no later than that); a mid-queue
        withdrawal leaves ``completions`` untouched, keeping a
        deterministic idle hole rather than inventing an earlier finish
        that later commits might overlap.
        """
        placed = self.placements.get(tid)
        if placed is None:
            return None
        machine, start = placed
        if start <= now:
            return None
        task = self._tasks.pop(tid)
        del self.placements[tid]
        completion = start + task.proc
        if self.scheduler.completions[machine] == completion:
            self.scheduler.completions[machine] = start
        self.scheduler.task_counts[machine] -= 1
        heap = self._inflight[machine]
        try:
            heap.remove(completion)
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

    def apply_placement(
        self,
        old_sets: Mapping[int, frozenset[int]],
        new_sets: Mapping[int, frozenset[int]],
        now: float,
        warmup: float = 0.0,
        version: int | None = None,
    ) -> list[DispatchDecision]:
        """Enact a re-replication decision on the live queues.

        ``old_sets``/``new_sets`` map each home machine to its replica
        set before and after the rebalance.  Three effects, in order:

        1. every machine *joining* some home's set is charged the
           deterministic ``warmup`` penalty (data fetch before serving,
           :meth:`add_replicas`);
        2. every queued-but-unstarted request whose current machine is
           no longer in its home's new set is withdrawn and re-placed
           with the engine's least-waiting-work rule
           (:meth:`redispatch`, ``reason="rebalance"``), in tid order;
        3. the rebalance counters and placement-version gauge roll into
           the metrics registry (created lazily, so runs that never
           rebalance snapshot without any rebalance keys).

        Requests whose machine survives in the new set stay put — a
        rebalance never perturbs work it does not have to move.
        Returns the migration decisions.
        """
        added = sorted(
            {
                j
                for u, new in new_sets.items()
                for j in new - old_sets.get(u, frozenset())
            }
        )
        self.add_replicas(added, now, warmup)
        migrated: list[DispatchDecision] = []
        for tid in sorted(self.placements):
            machine, start = self.placements[tid]
            if start <= now:
                continue
            task = self._tasks[tid]
            if task.key is None or task.key not in new_sets:
                continue
            new_set = new_sets[task.key]
            if machine in new_set:
                continue
            pulled = self.withdraw(tid, now)
            if pulled is None:  # pragma: no cover - guarded by start > now
                continue
            moved = Task(
                tid=pulled.tid,
                release=pulled.release,
                proc=pulled.proc,
                machines=frozenset(new_set),
                key=pulled.key,
            )
            migrated.append(self.redispatch(moved, now, reason="rebalance"))
        if self.metrics is not None:
            self.metrics.on_rebalance(
                version=version, n_migrated=len(migrated), n_added=len(added)
            )
        return migrated

    # -- fault surface -------------------------------------------------------
    def kill(self, machine: int) -> None:
        """Mark ``machine`` dead: it receives no further dispatches.
        Re-routing its queued work is the service layer's job (it owns
        the live queues) via :meth:`redispatch`."""
        if not (1 <= machine <= self.m):
            raise ValueError(f"machine {machine} outside 1..{self.m}")
        if machine not in self.alive:
            return
        self.alive.discard(machine)
        if self.metrics is not None:
            self.metrics.on_kill(machine, len(self.alive))

    def revive(self, machine: int, now: float = 0.0) -> list[DispatchDecision]:
        """Mark ``machine`` alive again and re-dispatch every parked
        task whose set now intersects the alive machines, in park order
        (the engine's recovery rule).  Returns the unpark decisions."""
        if not (1 <= machine <= self.m):
            raise ValueError(f"machine {machine} outside 1..{self.m}")
        if machine in self.alive:
            return []
        self.alive.add(machine)
        if self.metrics is not None:
            self.metrics.on_revive(machine, len(self.alive))
        pending, self.parked = self.parked, []
        unparked: list[DispatchDecision] = []
        still_parked: list[Task] = []
        for task in pending:
            if task.eligible(self.m) & self.alive:
                unparked.append(self.redispatch(task, now, reason="unpark"))
                if self.metrics is not None:
                    self.metrics.on_unpark(len(still_parked))
            else:
                still_parked.append(task)
        # ``redispatch`` cannot have re-parked (candidates were checked
        # and the alive set only grew), so ``self.parked`` is empty here.
        self.parked = still_parked + self.parked
        return unparked

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
        dispatcher mid-stream: the books, the alive set, the parking
        lot, and the scheduler's decision-relevant state (completion
        horizons, task counts, release watermark, the policy's own
        ``state_dict()`` under ``policy``, and — for randomised tie-breaks
        — the RNG state, so post-restore draws continue the crashed
        process's sequence exactly)."""
        from .protocol import task_to_wire

        scheduler_state: dict[str, Any] = {
            "completions": {str(j): c for j, c in self.scheduler.completions.items()},
            "task_counts": {str(j): c for j, c in self.scheduler.task_counts.items()},
            "last_release": self.scheduler._last_release,
        }
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
            "on_unavailable": self.on_unavailable,
            "alive": sorted(self.alive),
            "parked": [task_to_wire(t) for t in self.parked],
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
        self.parked = [task_from_wire(w) for w in state["parked"]]
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
    def recover(
        cls,
        journal: "Journal",
        scheduler: ImmediateDispatchScheduler | None = None,
        admission: AdmissionController | None = None,
        metrics: ServeMetrics | None = None,
        on_unavailable: str = "park",
        into: "ShardRouter | None" = None,
    ) -> "Recovery":
        """Rebuild a dispatcher from a write-ahead ``journal``: restore
        the latest snapshot (if any), then replay the WAL suffix.  The
        scheduler/admission wiring must match the crashed process's —
        replay re-derives every decision, byte-for-byte.  ``into``
        replays onto a blank :class:`~repro.serve.shard.router.
        ShardRouter` instead of a fresh dispatcher over ``scheduler``
        (how the serve frontend recovers its fleet, one shard or many).
        Returns the full :class:`~repro.serve.journal.Recovery` (the
        rebuilt object is ``recovery.dispatcher``)."""
        from .journal import recover as _recover

        if into is not None:
            return _recover(journal, lambda: into)
        return _recover(
            journal,
            lambda: cls(
                scheduler, admission=admission, metrics=metrics, on_unavailable=on_unavailable
            ),
        )
