"""The sharded decision tier: N dispatchers behind one router.

:class:`ShardRouter` scales :class:`~repro.serve.dispatcher.Dispatcher`
out horizontally: one dispatcher per shard of a :class:`ShardPlan`,
each with its own scheduler, shard-local
:class:`~repro.serve.admission.AdmissionController` and
:class:`~repro.serve.metrics.ServeMetrics` registry.  Like the single
dispatcher, the router is *synchronous and virtual-clocked* — every
placement is a pure function of the admitted request stream — which is
what lets shadow mode byte-compare a sharded run against the
single-dispatcher golden traces (:mod:`repro.serve.shadow`).  The
one-shard plan (:meth:`ShardPlan.single`) makes the router *exactly*
one :class:`Dispatcher`: every request is handed straight to it, and
the router keeps no per-request state of its own.

Routing invariants:

* **shard-local sets** (the whole processing set inside one shard —
  always the case on a Theorem-6 disjoint plan) are handed to the
  owner shard's dispatcher unchanged — submit *and* failure/unpark
  redispatch — so per-shard decisions are *identical* to the
  fleet-wide dispatcher's (EFT only reads the eligible machines'
  completion times, and only this shard's tasks write them), parking
  and shedding included;
* **straddling sets** (the plan's bounded handoff set, overlapping
  ring replication) are dispatched to the owner shard restricted to
  the owner-side fragment; the cross-shard remainder is touched only
  when the owner fragment's alive set goes empty, at which point the
  router *hands off* using the engine's failure rule — least waiting
  work over all alive remote candidates, smallest index on ties — via
  the target dispatcher's ``redispatch`` path;
* a straddling request with **no alive machine anywhere** in its set,
  or any request owned by a detached shard, is parked at the router
  (or shed with ``on_unavailable="shed"``) and re-placed on the first
  revival that intersects it, in park order.

Every dispatcher addresses machines by their *global* 1-based index
(each is built over the full ``m``), so placements merge without
renumbering; a shard only ever receives tasks restricted to its own
interval, so its scheduler state never references foreign machines.
The shards' books are the fleet's books: the router only remembers the
original task of each request a shard booked under a restricted copy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

from ...campaigns.trace import make_scheduler
from ...core.dispatch import ImmediateDispatchScheduler
from ...core.schedule import Schedule
from ...core.task import Instance, Task
from ...obs.recorders import MetricsRegistry
from ...obs.rollup import rollup_registries
from ..admission import AdmissionController
from ..dispatcher import (
    DISPATCHED,
    PARKED,
    REQUEUED,
    SHED,
    SHED_UNAVAILABLE,
    DispatchDecision,
    Dispatcher,
)
from ..metrics import ServeMetrics
from .plan import Route, ShardPlan

__all__ = ["RoutedDecision", "ShardRouter"]


@dataclass(slots=True)
class RoutedDecision:
    """A dispatch decision plus its routing: which shard took it and
    whether it travelled the cross-shard handoff path.  Reads like the
    :class:`DispatchDecision` it wraps (``task`` is always the original,
    unrestricted request)."""

    decision: DispatchDecision
    shard: int | None
    handoff: bool = False

    @property
    def task(self) -> Task:
        return self.decision.task

    @property
    def status(self) -> str:
        return self.decision.status

    @property
    def machine(self) -> int | None:
        return self.decision.machine

    @property
    def start(self) -> float | None:
        return self.decision.start

    @property
    def est_flow(self) -> float | None:
        return self.decision.est_flow

    @property
    def reason(self) -> str | None:
        return self.decision.reason


class ShardRouter:
    """N shard dispatchers behind interval-aware routing.

    Parameters
    ----------
    plan:
        The :class:`ShardPlan` partitioning machines into shards.
    scheduler:
        Scheduler name per shard (``eft-min`` etc.); each shard gets
        its own instance, seeded ``seed + shard_id`` for the randomised
        ones.  A one-shard plan also accepts a fresh scheduler object.
    slo / max_queue_depth:
        Shard-local admission (each shard reviews against its own
        analytic state only — per-shard admission ceilings).
    on_unavailable:
        ``"park"`` (default) or ``"shed"`` for requests whose whole
        set is dead.
    """

    def __init__(
        self,
        plan: ShardPlan,
        scheduler: str | ImmediateDispatchScheduler = "eft-min",
        seed: int = 0,
        slo: float | None = None,
        max_queue_depth: int | None = None,
        on_unavailable: str = "park",
    ) -> None:
        if on_unavailable not in ("park", "shed"):
            raise ValueError(f"on_unavailable must be 'park' or 'shed', got {on_unavailable!r}")
        if not isinstance(scheduler, str):
            if plan.n_shards != 1:
                raise ValueError("a scheduler object can only back a one-shard plan")
            if scheduler.m != plan.m:
                raise ValueError(f"scheduler has m={scheduler.m}, plan has m={plan.m}")
        self.plan = plan
        self.m = plan.m
        self.scheduler_name = scheduler if isinstance(scheduler, str) else scheduler.name
        self.on_unavailable = on_unavailable
        self.shard_metrics: list[ServeMetrics] = []
        self.dispatchers: list[Dispatcher] = []
        for sid in range(plan.n_shards):
            metrics = ServeMetrics()
            admission = AdmissionController(slo=slo, max_queue_depth=max_queue_depth)
            self.dispatchers.append(
                Dispatcher(
                    scheduler
                    if not isinstance(scheduler, str)
                    else make_scheduler(scheduler, plan.m, seed=seed + sid),
                    admission=admission,
                    metrics=metrics,
                    on_unavailable=on_unavailable,
                )
            )
            self.shard_metrics.append(metrics)
        self.router_registry = MetricsRegistry()
        self._routed = self.router_registry.counter("router_routed_total")
        self._routed_by_shard = [
            self.router_registry.counter(f"router_routed_shard[{sid}]_total")
            for sid in range(plan.n_shards)
        ]
        self._handoffs = self.router_registry.counter("router_handoffs_total")
        #: processing set -> its route (routing is a pure function of the set)
        self._routes: dict[frozenset[int] | None, Route] = {}
        self.down_shards: set[int] = set()
        self.parked: list[Task] = []
        #: original task of every request a shard booked restricted
        self._restricted: dict[int, Task] = {}
        self.n_handoffs = 0
        self.n_shed = 0

    # -- state ---------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.plan.n_shards

    def shard_alive(self, sid: int) -> frozenset[int]:
        """Alive machines of shard ``sid`` (its own interval only).
        A detached shard counts as fully dead regardless of its
        dispatcher's books — its process is gone."""
        if sid in self.down_shards:
            return frozenset()
        return frozenset(self.plan.machines(sid) & self.dispatchers[sid].alive)

    def alive(self) -> frozenset[int]:
        """Fleet-wide alive set."""
        out: set[int] = set()
        for sid in range(self.n_shards):
            out |= self.shard_alive(sid)
        return frozenset(out)

    @property
    def placements(self) -> dict[int, tuple[int, float]]:
        """Merged committed placements ``tid -> (machine, start)``."""
        merged: dict[int, tuple[int, float]] = {}
        for d in self.dispatchers:
            merged.update(d.placements)
        return merged

    def task(self, tid: int) -> Task | None:
        """The original task of a booked request (``None`` if unknown)."""
        task = self._restricted.get(tid)
        if task is None:
            for d in self.dispatchers:
                task = d.task(tid)
                if task is not None:
                    break
        return task

    # -- the decision path ---------------------------------------------------
    def _route(self, task: Task) -> Route:
        route = self._routes.get(task.machines)
        if route is None:
            route = self._routes[task.machines] = self.plan.route(task.eligible(self.m))
        return route

    def submit(self, task: Task) -> RoutedDecision:
        """Route and decide one fresh release (release order, as the
        dispatcher contract requires — per-shard substreams of a
        release-ordered stream are release-ordered)."""
        route = self._routes.get(task.machines) or self._route(task)
        owner = route.owner
        up = owner not in self.down_shards
        if up and route.is_local:
            routed = RoutedDecision(self.dispatchers[owner].submit(task), owner)
        elif up and route.owner_fragment & self.dispatchers[owner].alive:
            decision = self.dispatchers[owner].submit(task.restricted_to(route.owner_fragment))
            routed = self._book(task, decision, owner)
        else:
            # Owner detached or its fragment fully dead: cross-shard handoff.
            routed = self._place_failed(task, route, task.release, "handoff")
        self._routed.inc()
        self._routed_by_shard[owner].inc()
        return routed

    def redispatch(self, task: Task, now: float, reason: str = "failure") -> RoutedDecision:
        """Re-place a displaced task (machine failure, unpark,
        migration): a shard-local set goes back to its owner's
        ``redispatch``, anything else takes the cross-shard handoff rule
        over every alive candidate."""
        route = self._route(task)
        if route.is_local and route.owner not in self.down_shards:
            return RoutedDecision(
                self.dispatchers[route.owner].redispatch(task, now, reason=reason), route.owner
            )
        return self._place_failed(task, route, now, reason)

    def _place_failed(self, task: Task, route: Route, now: float, reason: str) -> RoutedDecision:
        """The failure path: place over every alive candidate fleet-wide
        with the engine's least-waiting-work rule, or park/shed."""
        candidates = [
            (sid, j)
            for sid, frag in route.fragments
            if sid not in self.down_shards
            for j in sorted(frag & self.dispatchers[sid].alive)
        ]
        if not candidates:
            if self.on_unavailable == "shed":
                self.n_shed += 1
                self.router_registry.counter("router_shed_unavailable_total").inc()
                decision = DispatchDecision(task=task, status=SHED, reason=SHED_UNAVAILABLE)
                return RoutedDecision(decision, None)
            self.parked.append(task)
            self.router_registry.counter("router_parked_total").inc()
            self.router_registry.gauge("router_parked_now").set(len(self.parked))
            return RoutedDecision(DispatchDecision(task=task, status=PARKED), None)
        sid, _ = min(
            candidates,
            key=lambda c: (self.dispatchers[c[0]].waiting_work(c[1], now), c[1]),
        )
        frag = route.fragment(sid)
        sub = task if frag == task.eligible(self.m) else task.restricted_to(frag)
        decision = self.dispatchers[sid].redispatch(sub, now, reason=reason)
        handoff = sid != route.owner
        if handoff:
            self.n_handoffs += 1
            self._handoffs.inc()
        return self._book(task, decision, sid, handoff=handoff)

    def _book(
        self, task: Task, decision: DispatchDecision, shard: int, handoff: bool = False
    ) -> RoutedDecision:
        """Remember the *original* task of a placement a shard booked
        under a restricted copy, and drop the stale booking another
        shard holds for it (a displaced straddler re-placed elsewhere)."""
        if decision.status in (DISPATCHED, REQUEUED):
            if decision.task is not task:
                self._restricted[task.tid] = task
                decision = replace(decision, task=task)
            for sid, d in enumerate(self.dispatchers):
                if sid != shard:
                    d.unbook(task.tid)
        return RoutedDecision(decision, shard, handoff)

    # -- rebalance surface ---------------------------------------------------
    def apply_placement(
        self,
        old_sets: Mapping[int, frozenset[int]],
        new_sets: Mapping[int, frozenset[int]],
        now: float,
        warmup: float = 0.0,
        version: int | None = None,
    ) -> list[RoutedDecision]:
        """Enact a re-replication decision fleet-wide.

        The sharded analogue of
        :meth:`repro.serve.dispatcher.Dispatcher.apply_placement`:
        machines joining a home's replica set are handed to their owning
        shard's :meth:`Dispatcher.add_replicas` (warmup plus the policy's
        ``on_replicas_added`` hook); queued-but-unstarted requests whose
        machine left their home's set are withdrawn from the shard that
        booked them and re-placed through :meth:`redispatch`, in tid
        order — a migration onto a straddling set may therefore *hand
        off* to another shard.  Counters and the placement-version gauge
        land in the router registry (lazily, so never-rebalanced fleets
        snapshot without rebalance keys).
        """
        added = sorted(
            {
                j
                for u, new in new_sets.items()
                for j in new - old_sets.get(u, frozenset())
            }
        )
        for (lo, hi), d in zip(self.plan.intervals, self.dispatchers):
            d.add_replicas([j for j in added if lo <= j <= hi], now, warmup)
        placements = self.placements
        migrated: list[RoutedDecision] = []
        for tid in sorted(placements):
            machine, start = placements[tid]
            if start <= now:
                continue
            task = self.task(tid)
            if task.key is None or task.key not in new_sets:
                continue
            new_set = new_sets[task.key]
            if machine in new_set:
                continue
            self.dispatchers[self.plan.shard_of(machine)].withdraw(tid, now)
            self._restricted.pop(tid, None)
            moved = replace(task, machines=frozenset(new_set))
            migrated.append(self.redispatch(moved, now, reason="rebalance"))
        self.router_registry.counter("router_rebalance_applied_total").inc()
        self.router_registry.counter("router_rebalance_migrated_total").inc(len(migrated))
        self.router_registry.counter("router_rebalance_warmup_machines_total").inc(len(added))
        if version is not None:
            self.router_registry.gauge("router_placement_version").set(version)
        return migrated

    # -- fault surface -------------------------------------------------------
    def kill(self, machine: int) -> int:
        """Mark ``machine`` dead on its owning shard; returns the shard
        id.  Re-routing queued work is the service layer's job."""
        sid = self.plan.shard_of(machine)
        self.dispatchers[sid].kill(machine)
        return sid

    def revive(self, machine: int, now: float = 0.0) -> list[RoutedDecision]:
        """Revive ``machine``: its shard re-places the shard-local
        requests it parked, then the router re-places every
        router-parked task whose set now intersects the fleet's alive
        machines, each in park order (the engine's recovery rule)."""
        sid = self.plan.shard_of(machine)
        if machine in self.dispatchers[sid].alive:
            return []
        unparked = [RoutedDecision(d, sid) for d in self.dispatchers[sid].revive(machine, now)]
        return unparked + self._unpark(now)

    def _unpark(self, now: float) -> list[RoutedDecision]:
        """Re-place every router-parked task whose set now intersects
        the fleet's alive machines, in park order (the engine's
        recovery rule)."""
        if not self.parked:
            return []
        alive = self.alive()
        pending, self.parked = self.parked, []
        replaced: list[RoutedDecision] = []
        still_parked: list[Task] = []
        for task in pending:
            if task.eligible(self.m) & alive:
                replaced.append(self.redispatch(task, now, reason="unpark"))
                self.router_registry.counter("router_unparked_total").inc()
            else:
                still_parked.append(task)
        self.parked = still_parked + self.parked
        self.router_registry.gauge("router_parked_now").set(len(self.parked))
        return replaced

    # -- supervision surface -------------------------------------------------
    def check_shard(self, sid: int) -> None:
        """Raise :class:`ValueError` unless ``sid`` names a shard."""
        if not 0 <= sid < self.n_shards:
            raise ValueError(f"shard {sid} out of range [0, {self.n_shards})")

    def detach_shard(self, sid: int) -> None:
        """Mark shard ``sid`` down — its *process* died, so the router
        must stop routing to it regardless of the (stale) alive bits in
        its dispatcher's books.  Submits owned by a detached shard take
        the cross-shard failure path (least waiting work over every
        alive candidate elsewhere) or park when no shard can serve
        them.  Idempotent."""
        self.check_shard(sid)
        if sid in self.down_shards:
            return
        self.down_shards.add(sid)
        self.router_registry.counter("router_detached_total").inc()
        self.router_registry.gauge("router_shards_down").set(len(self.down_shards))

    def reattach_shard(
        self, sid: int, dispatcher: Dispatcher | None = None, now: float = 0.0
    ) -> list[RoutedDecision]:
        """Rejoin shard ``sid`` after a restart.

        ``dispatcher`` (when given) replaces the shard's dispatcher
        with the journal-recovered instance — its books, scheduler
        state and metrics registry carry over from before the crash.
        Router-parked tasks whose sets the rejoined shard can now
        serve are re-placed in park order, exactly like a machine
        revival.  Returns those re-placements."""
        self.check_shard(sid)
        if sid not in self.down_shards:
            return []
        if dispatcher is not None:
            if dispatcher.m != self.m:
                raise ValueError(
                    f"recovered dispatcher has m={dispatcher.m}, router has m={self.m}"
                )
            self.dispatchers[sid] = dispatcher
            if dispatcher.metrics is not None:
                self.shard_metrics[sid] = dispatcher.metrics
        self.down_shards.discard(sid)
        self.router_registry.counter("router_reattached_total").inc()
        self.router_registry.gauge("router_shards_down").set(len(self.down_shards))
        return self._unpark(now)

    # -- results -------------------------------------------------------------
    def schedule(self) -> Schedule:
        """The merged committed schedule across every shard, under the
        original (unfragmented) tasks."""
        tasks = tuple(
            self._restricted.get(tid) or d.task(tid)
            for d in self.dispatchers
            for tid in d.placements
        )
        return Schedule(Instance(m=self.m, tasks=tasks), self.placements)

    def shard_schedule(self, sid: int) -> Schedule:
        """Shard ``sid``'s own committed schedule (its dispatcher's
        books — fragment-restricted tasks appear restricted)."""
        return self.dispatchers[sid].schedule()

    def fleet_registry(self, members: bool = True) -> MetricsRegistry:
        """Per-shard + router metrics rolled into one registry
        (:func:`repro.obs.rollup.rollup_registries`)."""
        named = {f"shard{sid}": m.registry for sid, m in enumerate(self.shard_metrics)}
        named["router"] = self.router_registry
        return rollup_registries(named, members=members)

    def stats(self) -> dict[str, Any]:
        """Fleet totals, router counters and per-shard dispatcher
        counters.  ``requests`` counts every answered submit once;
        ``dispatched`` also counts failure/unpark re-placements."""
        per_shard = []
        for sid, d in enumerate(self.dispatchers):
            lo, hi = self.plan.intervals[sid]
            per_shard.append(
                {
                    "shard": sid,
                    "machines": [lo, hi],
                    "alive": sorted(self.shard_alive(sid)),
                    "dispatched": d.n_dispatched,
                    "shed": d.n_shed,
                    "requeued": d.n_requeued,
                    "parked": len(d.parked),
                }
            )
        return {
            "m": self.m,
            "alive": sorted(self.alive()),
            "requests": self._routed.value,
            "dispatched": sum(s["dispatched"] for s in per_shard),
            "shed": self.n_shed + sum(s["shed"] for s in per_shard),
            "requeued": sum(s["requeued"] for s in per_shard),
            "parked": len(self.parked) + sum(s["parked"] for s in per_shard),
            "shards": per_shard,
            "down_shards": sorted(self.down_shards),
            "routed": self._routed.value,
            "handoffs": self.n_handoffs,
        }

    # -- crash recovery ------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """Everything a journal snapshot needs to rebuild the fleet:
        each shard's :meth:`Dispatcher.state_dict` plus the router's
        own books (detached shards, parking lot, original tasks of
        restricted bookings, counters)."""
        from ..protocol import task_to_wire

        return {
            "intervals": [list(iv) for iv in self.plan.intervals],
            "shards": [d.state_dict() for d in self.dispatchers],
            "down_shards": sorted(self.down_shards),
            "parked": [task_to_wire(t) for t in self.parked],
            "restricted": [task_to_wire(t) for t in self._restricted.values()],
            "counters": {
                "routed": self._routed.value,
                "n_handoffs": self.n_handoffs,
                "n_shed": self.n_shed,
            },
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Restore :meth:`state_dict` output onto this (freshly built)
        router; the plan and scheduler wiring must match."""
        from ..protocol import task_from_wire

        intervals = tuple(tuple(iv) for iv in state["intervals"])
        if intervals != self.plan.intervals:
            raise ValueError(f"snapshot has shards {intervals}, router has {self.plan.intervals}")
        for d, shard_state in zip(self.dispatchers, state["shards"]):
            d.load_state_dict(shard_state)
        self.down_shards = set(int(s) for s in state["down_shards"])
        self.parked = [task_from_wire(w) for w in state["parked"]]
        self._restricted = {t.tid: t for t in map(task_from_wire, state["restricted"])}
        counters = state["counters"]
        self._routed.value = int(counters["routed"])
        self.n_handoffs = int(counters["n_handoffs"])
        self.n_shed = int(counters["n_shed"])
