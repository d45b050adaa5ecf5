"""The rebalance evaluation harness: workload → dispatch → decisions.

One virtual-clocked run wires everything together:

* a :class:`~repro.simulation.workload.WorkloadSpec` streams raw
  ``(release, home, size)`` arrivals
  (:meth:`~repro.simulation.workload.WorkloadSpec.stream`) — replica
  sets are resolved at dispatch time against the **live** placement,
  which is what makes re-replication visible to the workload at all;
* the serve tier's one-shard fleet, a
  :class:`~repro.serve.shard.router.ShardRouter` over
  :meth:`ShardPlan.single <repro.serve.shard.plan.ShardPlan.single>`
  (any named scheduler), places each request; machine faults
  kill/revive machines mid-run and each dead machine's queued work
  drains off it as one batch (:meth:`~repro.serve.shard.router.
  ShardRouter.redispatch`, the engine's failure rule);
* under ``policy="adaptive"``, a
  :class:`~repro.rebalance.controller.RebalanceController` runs its
  cadence checks at the exact cadence instants (interleaved with fault
  transitions in time order, faults first on ties) and every triggered
  proposal is enacted through
  :meth:`~repro.serve.shard.router.ShardRouter.apply_placement` — warmup
  charged, shrunk-away queued work migrated; under ``policy="static"``
  the placement never moves (the controller is absent entirely, so the
  static run is byte-identical to the pre-rebalance code path).

Everything is a pure function of ``(spec, policy, config, scheduler,
seed, faults)``: the run's decisions serialise to a versioned
:mod:`~repro.rebalance.events` trace whose header embeds all six, and
:func:`replay_rebalance` re-runs a trace from its own bytes and
byte-compares — the determinism contract of ``repro replay``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..core.task import Task
from ..faults.schedule import FaultSchedule
from ..schedulers.registry import get_scheduler
from ..serve.driver import percentile
from ..serve.shard.plan import ShardPlan
from ..serve.shard.router import ShardRouter
from ..simulation.dynamics import HotspotShift
from ..simulation.workload import WorkloadSpec
from .controller import RebalanceConfig, RebalanceController
from .events import RebalanceTrace, dumps as dump_trace
from .placement import IntervalPlacement

__all__ = ["RebalanceResult", "default_spec", "replay_rebalance", "run_rebalance"]

POLICIES = ("static", "adaptive")


def default_spec(params: Mapping[str, Any]) -> WorkloadSpec:
    """The hotspot-shift scenario: a Zipf-``s`` popularity whose hot
    region rotates ``rotation`` machines around the ring at
    ``shift_at`` (half-way through the stream by default), the moment
    a static placement tuned for the first regime starts drowning."""
    m = int(params.get("m", 12))
    n = int(params.get("n", 4000))
    k = int(params.get("k", 2))
    s = float(params.get("s", 1.5))
    lam = float(params.get("lam", 0.55 * m))
    shift_at = float(params.get("shift_at", n / (2.0 * lam)))
    rotation = int(params.get("rotation", m // 2))
    return WorkloadSpec(
        m=m,
        n=n,
        lam=lam,
        popularity_profile=HotspotShift(m=m, s=s, shifts=((shift_at, rotation),)),
        k=k,
        strategy=str(params.get("strategy", "overlapping")),
        proc=float(params.get("proc", 1.0)),
    )


@dataclass(frozen=True)
class RebalanceResult:
    """Outcome of one harness run."""

    policy: str
    scheduler: str
    seed: int
    n: int
    flow: dict[str, float]  #: p50/p95/p99/max of analytic flow times
    digest: str  #: sha256 over the final ``tid:machine`` assignments
    n_rebalances: int
    n_migrated: int
    n_requeued: int
    final_version: int
    trace: RebalanceTrace
    metrics: dict[str, Any]  #: registry snapshot of the run


def _assignments_digest(placements: Mapping[int, tuple[int, float]]) -> str:
    """sha256 over ``tid:machine`` lines in tid order — the same
    fingerprint discipline as the serve driver's report digest."""
    h = hashlib.sha256()
    for tid in sorted(placements):
        h.update(f"{tid}:{placements[tid][0]}\n".encode())
    return h.hexdigest()


def run_rebalance(
    spec: WorkloadSpec,
    policy: str = "adaptive",
    config: RebalanceConfig | None = None,
    scheduler: str = "eft-min",
    seed: int = 0,
    faults: FaultSchedule | None = None,
) -> RebalanceResult:
    """Run one workload under a static or adaptive placement."""
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
    config = config if config is not None else RebalanceConfig()
    header = spec.to_dict()  # fails before the run on a spec with no dict form
    stream = spec.stream(np.random.default_rng(seed))
    placement = IntervalPlacement.from_strategy(spec.replication())
    router = ShardRouter(ShardPlan.single(spec.m), get_scheduler(scheduler, spec.m, seed=seed))
    controller = (
        RebalanceController(placement, config=config) if policy == "adaptive" else None
    )
    fault_events = list(faults.events()) if faults is not None else []
    fi = 0
    n_migrated = 0

    def current_placement() -> IntervalPlacement:
        return controller.placement if controller is not None else placement

    def advance(until: float) -> None:
        """Process fault transitions and cadence checks owed at or
        before ``until``, in time order (faults first on ties — a
        cadence check sees the cluster state of its instant)."""
        nonlocal fi, n_migrated
        while True:
            fault_t = fault_events[fi][0] if fi < len(fault_events) else None
            check_t = (
                controller.next_due
                if controller is not None and controller.due(until)
                else None
            )
            take_fault = fault_t is not None and fault_t <= until and (
                check_t is None or fault_t <= check_t
            )
            if take_fault:
                t, kind, j = fault_events[fi]
                fi += 1
                if not (1 <= j <= spec.m):
                    continue
                if kind == "down":
                    # started work finishes in place (drain-on-failure)
                    router.kill(j)
                    queue = sorted(
                        (start, tid)
                        for tid, (machine, start) in router.placements.items()
                        if machine == j and start > t
                    )
                    router.redispatch([router.task(tid) for _, tid in queue], t)
                else:
                    router.revive(j, t)
                continue
            if check_t is not None and check_t <= until:
                old_sets = controller.placement.sets()
                decision = controller.step(check_t)
                if decision.triggered:
                    migrated = router.apply_placement(
                        old_sets,
                        controller.placement.sets(),
                        check_t,
                        warmup=config.warmup,
                        version=decision.version,
                    )
                    n_migrated += sum(1 for d in migrated if d.reason == "rebalance")
                continue
            break

    arrivals = zip(stream.releases.tolist(), stream.homes.tolist(), stream.sizes.tolist())
    for i, (release, home, proc) in enumerate(arrivals):
        advance(release)
        task = Task(
            tid=i,
            release=release,
            proc=proc,
            machines=current_placement().replicas(home),
            key=home,
        )
        router.submit(task)
        if controller is not None:
            controller.observe(release, home, proc)

    placements = router.placements
    flows = [
        placements[tid][1] + router.task(tid).proc - router.task(tid).release
        for tid in sorted(placements)
    ]
    flow = (
        {
            "p50": percentile(flows, 0.50),
            "p95": percentile(flows, 0.95),
            "p99": percentile(flows, 0.99),
            "max": max(flows),
            "mean": sum(flows) / len(flows),
        }
        if flows
        else {"p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0, "mean": 0.0}
    )
    digest = _assignments_digest(placements)
    decisions = tuple(controller.decisions) if controller is not None else ()
    trace = RebalanceTrace(
        m=spec.m,
        policy=policy,
        scheduler=scheduler,
        seed=seed,
        decisions=decisions,
        meta={
            "spec": header,
            "config": config.to_dict(),
            "faults": None if faults is None else faults.to_json().strip(),
            "digest": digest,
        },
    )
    return RebalanceResult(
        policy=policy,
        scheduler=scheduler,
        seed=seed,
        n=spec.n,
        flow=flow,
        digest=digest,
        n_rebalances=sum(1 for d in decisions if d.triggered),
        n_migrated=n_migrated,
        n_requeued=router.stats()["requeued"],
        final_version=controller.version if controller is not None else 0,
        trace=trace,
        metrics=router.fleet_registry(members=False).snapshot(),
    )


def replay_rebalance(trace: RebalanceTrace) -> tuple[RebalanceResult, bool]:
    """Re-run a recorded rebalance experiment from its header meta.

    Returns the fresh result and whether its re-serialised trace is
    byte-identical to the input — the determinism check behind
    ``repro replay`` on rebalance traces.
    """
    meta = trace.meta
    spec = WorkloadSpec.from_dict(meta["spec"])
    config = RebalanceConfig.from_dict(meta.get("config") or {})
    faults_doc = meta.get("faults")
    faults = FaultSchedule.from_json(faults_doc) if faults_doc else None
    result = run_rebalance(
        spec,
        policy=trace.policy,
        config=config,
        scheduler=trace.scheduler,
        seed=trace.seed,
        faults=faults,
    )
    return result, dump_trace(result.trace) == dump_trace(trace)
