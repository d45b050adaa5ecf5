"""The fleet surface: N shard dispatchers behind one router.

:class:`ShardRouter` is the one decision surface of the serve tier: one
:class:`~repro.serve.dispatcher.Dispatcher` per shard of a
:class:`ShardPlan` (each with its own scheduler, shard-local
:class:`~repro.serve.admission.AdmissionController` and
:class:`~repro.serve.metrics.ServeMetrics` registry) keeps that shard's
books, and the router owns everything that needs the fleet view: the
one parking lot, the failure rule, shedding of unavailable work and
rebalance.  Like its dispatchers, the router is *synchronous and
virtual-clocked* — every placement is a pure function of the admitted
request stream — which is what lets the test suite's shadow oracle
(``tests/oracles.py``) byte-compare a sharded run against the
single-dispatcher golden traces.  A single server is the one-shard plan
(:meth:`ShardPlan.single`).

Routing invariants:

* **fresh releases** whose owner shard is attached and has an alive
  machine in the owner fragment go to that shard's dispatcher, which
  decides over the whole set when it is shard-local (always the case on
  a Theorem-6 disjoint plan), else over the owner fragment — so
  per-shard decisions are *identical* to the fleet-wide dispatcher's
  (EFT only reads the eligible machines' completion times, and only
  this shard's tasks write them);
* **everything else** — a fresh release whose owner is detached or
  whose owner fragment is fully dead, a failure redispatch, an unpark,
  a migration — takes the engine's failure rule (:meth:`_place_failed`,
  :mod:`repro.core.failover`): earliest finish over every alive
  candidate fleet-wide, charged onto the chosen machine's shard (a
  *handoff* when that is not the owner);
* a request with **no alive machine anywhere** in its set is parked in
  the router's lot (or shed with ``on_unavailable="shed"``) and
  re-placed, in park order, on the first revival or reattach that
  intersects it.

Every dispatcher addresses machines by their *global* 1-based index
(each is built over the full ``m``), so placements merge without
renumbering; a shard's scheduler only ever decides over its own
interval, so its state never references foreign machines.  The shards'
books are the fleet's books, each request recorded once under its
original task; the router adds routing and nothing else.  Decisions
are plain :class:`~repro.serve.dispatcher.DispatchDecision` records:
each dispatcher stamps its own shard id, the failure path marks
handoffs, and the router's park/shed decisions carry ``shard=None``.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ...core.dispatch import ImmediateDispatchScheduler
from ...core.failover import earliest_finish, split_parked
from ...core.schedule import Schedule
from ...core.task import Instance, Task
from ...obs.recorders import MetricsRegistry
from ...obs.rollup import rollup_registries
from ...schedulers.registry import get_scheduler
from ..admission import AdmissionController
from ..dispatcher import PARKED, SHED, DispatchDecision, Dispatcher
from ..metrics import ServeMetrics, decision_counters
from .plan import Route, ShardPlan

__all__ = ["ShardRouter"]


#: reason attached to requests rejected because their whole processing
#: set was down (only with ``on_unavailable="shed"``).
SHED_UNAVAILABLE = "unavailable"


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
                    else get_scheduler(scheduler, plan.m, seed=seed + sid),
                    admission=admission,
                    metrics=metrics,
                    shard=sid,
                )
            )
            self.shard_metrics.append(metrics)
        self.router_registry = MetricsRegistry()
        self._requests = self.router_registry.counter("requests_total")
        self._routed_by_shard = [
            self.router_registry.counter(f"router_routed_shard[{sid}]_total")
            for sid in range(plan.n_shards)
        ]
        self._handoffs = self.router_registry.counter("router_handoffs_total")
        #: processing set -> its route (routing is a pure function of the set)
        self._routes: dict[frozenset[int] | None, Route] = {}
        self.down_shards: set[int] = set()
        #: the fleet's one parking lot, in park order
        self.parked: list[Task] = []

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
        """The task of a booked request (``None`` if unknown)."""
        for d in self.dispatchers:
            task = d.task(tid)
            if task is not None:
                return task
        return None

    # -- the decision path ---------------------------------------------------
    def _route(self, task: Task) -> Route:
        route = self._routes.get(task.machines)
        if route is None:
            route = self._routes[task.machines] = self.plan.route(task.eligible(self.m))
        return route

    def submit(self, task: Task) -> DispatchDecision:
        """Route and decide one fresh release (release order, as the
        dispatcher contract requires — per-shard substreams of a
        release-ordered stream are release-ordered).  A tid some shard
        has booked or the lot holds raises :class:`ValueError`; a shed
        one may be retried."""
        tid = task.tid
        for d in self.dispatchers:
            if tid in d.placements:
                raise ValueError(f"duplicate task id {tid}")
        if self.parked and any(t.tid == tid for t in self.parked):
            raise ValueError(f"duplicate task id {tid}")
        route = self._routes.get(task.machines) or self._route(task)
        owner = route.owner
        decision = None
        if owner not in self.down_shards:
            # The owner decides over its alive view of its fragment;
            # ``None`` means that is fully dead.
            if route.is_local:
                decision = self.dispatchers[owner].submit(task)
            else:
                decision = self.dispatchers[owner].submit(task, route.owner_fragment)
        if decision is None:
            decision = self._place_failed(task, route, task.release, "handoff")
        self._requests.inc()
        self._routed_by_shard[owner].inc()
        return decision

    def redispatch(
        self, tasks: Sequence[Task], now: float, reason: str = "failure"
    ) -> list[DispatchDecision]:
        """Re-place a displaced batch (a dead machine's queue, the
        unparked lot, a migration) at ``now``, as the engine's
        ``Simulator._redispatch`` does: unbook every task from the
        shard holding it, tail first, then place each in order by the
        failure rule over every alive candidate, or park it unbooked."""
        for task in reversed(tasks):
            for d in self.dispatchers:
                d.unbook(task.tid, now)
        return [self._place_failed(task, self._route(task), now, reason) for task in tasks]

    def _place_failed(
        self, task: Task, route: Route, now: float, reason: str
    ) -> DispatchDecision:
        """The failure path: the engine's failure rule over every alive
        candidate fleet-wide, or park/shed when there is none."""
        shard_of = {
            j: sid
            for sid, frag in route.fragments
            if sid not in self.down_shards
            for j in frag & self.dispatchers[sid].alive
        }
        if not shard_of:
            return self._park(task)
        machine = earliest_finish(
            shard_of,
            lambda j: self.dispatchers[shard_of[j]].waiting_work(j, now),
            lambda j: self.dispatchers[shard_of[j]].scheduler.service(task, j),
        )
        sid = shard_of[machine]
        handoff = sid != route.owner
        decision = self.dispatchers[sid].commit(task, machine, now, reason, handoff)
        if handoff:
            self._handoffs.inc()
        return decision

    def _park(self, task: Task) -> DispatchDecision:
        """No alive machine anywhere in the set: hold ``task`` in the
        fleet's one parking lot until a revival or reattach can serve
        it — or, with ``on_unavailable="shed"``, reject it."""
        registry = self.router_registry
        if self.on_unavailable == "shed":
            registry.counter("shed_total").inc()
            registry.counter(f"shed_{SHED_UNAVAILABLE}_total").inc()
            return DispatchDecision(task=task, status=SHED, reason=SHED_UNAVAILABLE)
        self.parked.append(task)
        registry.counter("parked_total").inc()
        registry.gauge("parked_now").set(len(self.parked))
        return DispatchDecision(task=task, status=PARKED)

    def _unpark(self, now: float) -> list[DispatchDecision]:
        """Re-place every parked task whose set now intersects the
        fleet's alive machines, in park order (the engine's recovery
        rule)."""
        if not self.parked:
            return []
        ready, self.parked = split_parked(self.parked, self.alive(), self.m)
        replaced = self.redispatch(ready, now, reason="unpark")
        if replaced:
            self.router_registry.counter("unparked_total").inc(len(replaced))
        self.router_registry.gauge("parked_now").set(len(self.parked))
        return replaced

    # -- rebalance surface ---------------------------------------------------
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

        1. every machine *joining* some home's set is handed to its
           owning shard's :meth:`Dispatcher.add_replicas` (the
           deterministic ``warmup`` on its horizon, then the policy's
           ``on_replicas_added`` hook);
        2. every queued-but-unstarted request whose machine is no
           longer in its home's new set is re-placed, restricted to it,
           by a one-task :meth:`redispatch` (``reason="rebalance"``), in
           tid order — a migration onto a straddling set may therefore
           *hand off* to another shard;
        3. the rebalance counters and ``placement_version`` gauge land
           in the router registry (created lazily, so a fleet that
           never rebalances snapshots without any rebalance keys).

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
        for (lo, hi), d in zip(self.plan.intervals, self.dispatchers):
            d.add_replicas([j for j in added if lo <= j <= hi], now, warmup)
        placements = self.placements
        migrated: list[DispatchDecision] = []
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
            migrated += self.redispatch([task.restricted_to(new_set)], now, reason="rebalance")
        registry = self.router_registry
        registry.counter("rebalance_applied_total").inc()
        registry.counter("rebalance_migrated_total").inc(len(migrated))
        registry.counter("rebalance_warmup_machines_total").inc(len(added))
        if version is not None:
            registry.gauge("placement_version").set(version)
        return migrated

    # -- fault surface -------------------------------------------------------
    def kill(self, machine: int) -> int:
        """Mark ``machine`` dead on its owning shard; returns the shard
        id.  Re-routing queued work is the service layer's job."""
        sid = self.plan.shard_of(machine)
        self.dispatchers[sid].kill(machine)
        return sid

    def revive(self, machine: int, now: float = 0.0) -> list[DispatchDecision]:
        """Revive ``machine`` on its owning shard, then re-place every
        parked task the fleet can now serve, in park order.  Returns
        those re-placements."""
        sid = self.plan.shard_of(machine)
        if machine in self.dispatchers[sid].alive:
            return []
        self.dispatchers[sid].revive(machine)
        return self._unpark(now)

    # -- supervision surface -------------------------------------------------
    def check_shard(self, sid: int) -> None:
        """Raise :class:`ValueError` unless ``sid`` names a shard."""
        if not 0 <= sid < self.n_shards:
            raise ValueError(f"shard {sid} out of range [0, {self.n_shards})")

    def detach_shard(self, sid: int) -> None:
        """Mark shard ``sid`` down — its *process* died, so the router
        must stop routing to it regardless of the (stale) alive bits in
        its dispatcher's books.  Submits owned by a detached shard take
        the cross-shard failure path (earliest finish over every alive
        candidate elsewhere) or park when no shard can serve them.
        Idempotent."""
        self.check_shard(sid)
        if sid in self.down_shards:
            return
        self.down_shards.add(sid)
        self.router_registry.counter("router_detached_total").inc()
        self.router_registry.gauge("router_shards_down").set(len(self.down_shards))

    def reattach_shard(self, sid: int, now: float = 0.0) -> list[DispatchDecision]:
        """Rejoin shard ``sid`` after a restart, with the books it kept.
        Router-parked tasks whose sets the rejoined shard can now
        serve are re-placed in park order, exactly like a machine
        revival.  Returns those re-placements."""
        self.check_shard(sid)
        if sid not in self.down_shards:
            return []
        self.down_shards.discard(sid)
        self.router_registry.counter("router_reattached_total").inc()
        self.router_registry.gauge("router_shards_down").set(len(self.down_shards))
        return self._unpark(now)

    # -- results -------------------------------------------------------------
    def schedule(self) -> Schedule:
        """The merged committed schedule across every shard."""
        tasks = tuple(d.task(tid) for d in self.dispatchers for tid in d.placements)
        return Schedule(Instance(m=self.m, tasks=tasks), self.placements)

    def shard_schedule(self, sid: int) -> Schedule:
        """Shard ``sid``'s own committed schedule (its dispatcher's
        books, straddlers under their original sets)."""
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
        for sid, metrics in enumerate(self.shard_metrics):
            lo, hi = self.plan.intervals[sid]
            per_shard.append(
                {
                    "shard": sid,
                    "machines": [lo, hi],
                    "alive": sorted(self.shard_alive(sid)),
                    "dispatched": metrics.dispatched.value,
                    "shed": metrics.shed_total.value,
                    "requeued": metrics.registry.count("requeued_total"),
                }
            )
        return {
            "m": self.m,
            "alive": sorted(self.alive()),
            "requests": self._requests.value,
            "dispatched": sum(s["dispatched"] for s in per_shard),
            "shed": self.router_registry.count("shed_total") + sum(s["shed"] for s in per_shard),
            "requeued": sum(s["requeued"] for s in per_shard),
            "parked": len(self.parked),
            "shards": per_shard,
            "down_shards": sorted(self.down_shards),
            "handoffs": self._handoffs.value,
        }

    # -- crash recovery ------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """Everything a journal snapshot needs to rebuild the fleet:
        each shard's :meth:`Dispatcher.state_dict` plus the router's
        own books (detached shards, the parking lot, its registry's
        decision-path counters)."""
        from ..protocol import task_to_wire

        return {
            "intervals": [list(iv) for iv in self.plan.intervals],
            "shards": [d.state_dict() for d in self.dispatchers],
            "down_shards": sorted(self.down_shards),
            "parked": [task_to_wire(t) for t in self.parked],
            "metrics": decision_counters(self.router_registry),
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Restore :meth:`state_dict` output onto this (freshly built)
        router; the plan and scheduler wiring must match.  A snapshot
        from before the shards recorded original tasks carries the
        originals of straddlers booked under a restricted copy in
        ``restricted``: they replace those copies in the shard
        records."""
        from ..protocol import task_from_wire

        intervals = tuple(tuple(iv) for iv in state["intervals"])
        if intervals != self.plan.intervals:
            raise ValueError(f"snapshot has shards {intervals}, router has {self.plan.intervals}")
        originals = {w["tid"]: w for w in state.get("restricted", ())}
        for d, shard_state in zip(self.dispatchers, state["shards"]):
            if originals:
                tasks = [originals.get(w["tid"], w) for w in shard_state["tasks"]]
                shard_state = {**shard_state, "tasks": tasks}
            d.load_state_dict(shard_state)
        self.down_shards = set(int(s) for s in state["down_shards"])
        self.parked = [task_from_wire(w) for w in state["parked"]]
        if "metrics" in state:
            counts = state["metrics"]
        else:  # a snapshot that kept the router's counts as ints
            legacy = state["counters"]
            counts = {
                name: legacy[key]
                for name, key in (
                    ("requests_total", "routed"),
                    ("router_handoffs_total", "n_handoffs"),
                    ("shed_total", "n_shed"),
                    (f"shed_{SHED_UNAVAILABLE}_total", "n_shed"),
                )
                if legacy[key]
            }
        self.router_registry.load_counter_values(counts)
