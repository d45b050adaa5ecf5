"""Sharded serve tier: N dispatcher shards behind an interval-aware router.

Scales :mod:`repro.serve` from one dispatcher to a fleet, on the
paper's own structure:

* :mod:`~repro.serve.shard.plan` — :class:`ShardPlan`, partitioning
  machines ``1..m`` into contiguous shard intervals: exact disjoint
  partitions (Theorem 6 composition, zero cross-talk) and interval
  covers for overlapping rings with an explicit bounded handoff set;
* :mod:`~repro.serve.shard.router` — :class:`ShardRouter`, the
  virtual-clocked decision tier every ``repro serve`` enacts (one
  shard by default, ``--shards N`` for a fleet): shard-local dispatch,
  shard-local admission, deterministic cross-shard failure handoff via
  the earliest-finish failure rule the engine shares
  (:mod:`repro.core.failover`).

:func:`plan_for_instance` and :func:`partition_instance` (in
:mod:`~repro.serve.shard.plan`) are the client-side routing of the
multi-process harness, :func:`repro.serve.loopback.run_loopback` with
``shards=N``.

The asyncio frontend is :class:`repro.serve.frontend.ServeService`; the
golden byte-identity checks (merged and per shard) are a test oracle,
``tests/oracles.py``, not part of the package.
"""

from .plan import Route, ShardPlan, partition_instance, plan_for_instance
from .router import ShardRouter

__all__ = [
    "Route",
    "ShardPlan",
    "ShardRouter",
    "partition_instance",
    "plan_for_instance",
]
