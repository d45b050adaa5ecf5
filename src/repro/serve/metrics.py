"""Live service metrics, recorded into a :mod:`repro.obs` registry.

:class:`ServeMetrics` is the observability surface of the serving
layer's shard books: each shard's dispatcher drives the decision-path
recorders (dispatches, admission sheds, requeues, kills/revives,
per-machine queue-depth gauges) and the asyncio service layer drives
the completion-path ones (completions, measured wall flow).  The fleet
events — requests, parks, unparks, unavailable sheds, rebalances — are
recorded by :class:`~repro.serve.shard.router.ShardRouter` in its own
registry under the same naming scheme (``requests_total``,
``parked_total``, ``parked_now``, ``unparked_total``, ``shed_total``
with ``shed_<reason>_total``, ``rebalance_*_total``,
``placement_version``), so a fleet rollup sums each event under one
name.  Everything lands in one
:class:`~repro.obs.recorders.MetricsRegistry`, so a snapshot taken at
any instant serialises in the canonical byte-stable format of
:mod:`repro.obs.snapshot` — the same format the campaign ``--metrics``
snapshots use, validatable with ``python -m repro.obs.validate``.

Decision-path metrics are a pure function of the admitted request
stream (the dispatcher is virtual-clocked), so two runs over the same
workload agree on every counter and on the ``est_flow`` histogram;
only the ``wall_flow`` histogram and the sampled gauges reflect
wall-clock reality and may differ between runs.
"""

from __future__ import annotations

from typing import Sequence

from ..obs.recorders import MetricsRegistry
from ..obs.sim import DEFAULT_FLOW_EDGES

__all__ = ["SERVICE_COUNTERS", "ServeMetrics", "decision_counters"]

#: Counters the asyncio service layer drives: completions, request
#: errors, dedupe hits, journal snapshots and recovery bookkeeping.  A
#: WAL replay re-derives every other counter from the decisions.
SERVICE_COUNTERS = frozenset(
    {
        "completed_total",
        "errors_total",
        "dedupe_hits_total",
        "journal_snapshots_total",
        "recovery_runs_total",
        "recovery_replayed_total",
        "recovery_dropped_tail_total",
    }
)


def decision_counters(registry: MetricsRegistry) -> dict[str, int]:
    """The decision-path counters of ``registry`` by name (all but
    :data:`SERVICE_COUNTERS`): what a journal snapshot carries, so a
    snapshot plus the WAL suffix restores the live counts."""
    return {
        name: value
        for name, value in registry.counter_values().items()
        if name not in SERVICE_COUNTERS
    }


class ServeMetrics:
    """Recorder bundle of the dispatch service.

    Parameters
    ----------
    registry:
        Registry to record into (a fresh one by default; pass a shared
        one to merge the service into a larger snapshot).
    flow_edges:
        Bucket edges of the ``est_flow`` and ``wall_flow`` histograms,
        in virtual time units.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        flow_edges: Sequence[float] = DEFAULT_FLOW_EDGES,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.dispatched = self.registry.counter("dispatched_total")
        self.shed_total = self.registry.counter("shed_total")
        self.completed = self.registry.counter("completed_total")
        self.errors = self.registry.counter("errors_total")
        self.est_flow = self.registry.histogram("est_flow", flow_edges)
        self.wall_flow = self.registry.histogram("wall_flow", flow_edges)

    # -- decision path (dispatcher core) ------------------------------------
    def on_dispatch(self, machine: int, est_flow: float, depth: int) -> None:
        self.dispatched.inc()
        self.est_flow.observe(est_flow)
        self.set_depth(machine, depth)

    def on_shed(self, reason: str) -> None:
        self.shed_total.inc()
        self.registry.counter(f"shed_{reason}_total").inc()

    # Fault-path recorders are created lazily (like the simulator's
    # SimRecorder), so a fault-free run's snapshot carries no fault keys.
    def on_requeue(self) -> None:
        self.registry.counter("requeued_total").inc()

    def on_kill(self, machine: int, n_alive: int) -> None:
        self.registry.counter("machine_kills_total").inc()
        self.registry.gauge("alive_machines").set(n_alive)

    def on_revive(self, machine: int, n_alive: int) -> None:
        self.registry.counter("machine_revives_total").inc()
        self.registry.gauge("alive_machines").set(n_alive)

    def set_depth(self, machine: int, depth: int) -> None:
        self.registry.gauge(f"queue_depth[{machine}]").set(depth)

    # -- completion path (service layer) ------------------------------------
    def on_complete(self, wall_flow: float) -> None:
        self.completed.inc()
        self.wall_flow.observe(wall_flow)
