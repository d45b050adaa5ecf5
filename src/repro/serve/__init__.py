"""Real-time online dispatch service.

The serving layer runs the paper's immediate-dispatch algorithms as a
live asyncio service rather than inside the discrete-event simulator:

* :mod:`~repro.serve.protocol` — length-prefixed JSON framing over
  unix sockets or TCP;
* :mod:`~repro.serve.dispatcher` — one shard's virtual-clocked books
  (submit over the alive view, commits, withdraw, alive bits,
  snapshots), sharing the scheduler ``submit`` contract with the
  engine;
* :mod:`~repro.serve.admission` — bounded-queue backpressure and SLO
  load shedding keyed to the paper's waiting-work flow bound;
* :mod:`~repro.serve.metrics` — live :mod:`repro.obs` metrics
  (flow histograms, shed counters, queue-depth gauges, canonical
  snapshot dumps);
* :mod:`~repro.serve.frontend` — workers, fault kill/revive, the
  protocol frontend (``repro serve``, one shard or ``--shards N``);
* :mod:`~repro.serve.driver` — the one open-loop driver (``repro
  drive``): plain, or resilient under a :class:`ClientResilience`;
* :mod:`~repro.serve.loopback` — the one run harness
  (``repro bench-serve``): the in-process service, or one server
  process per shard, optionally journalled, under chaos and with a
  shard kill;
* :mod:`~repro.serve.shard` — the fleet surface: :class:`ShardPlan`
  partitioning, and the interval-aware :class:`ShardRouter` that every
  service enacts (one shard or many) — it owns the one parking lot,
  the earliest-finish failure rule (:mod:`repro.core.failover`) with
  cross-shard handoff,
  unavailable shedding and rebalance ``apply_placement`` — plus the
  client-side routing of the multi-process harness
  (:func:`plan_for_instance`, :func:`partition_instance`);
* :mod:`~repro.serve.journal` — the write-ahead operation log that
  makes the fleet crash-recoverable
  (``Dispatcher.recover(journal, into=router)``);
* :mod:`~repro.serve.supervisor` — shard-process supervision: death
  detection, restart, journal replay, fleet rejoin;
* :mod:`~repro.serve.resilient` — the driver's chaos envelope:
  retry with backoff, dedupe-keyed idempotent submits, circuit
  breaker.

Shadow mode — the virtual-time replay proving the service takes
exactly the engine's decisions (golden-trace byte identity, single
server and sharded, merged and per shard) — is a tier-1 test oracle,
``tests/oracles.py``, not a module of this package.
"""

from .admission import SHED_QUEUE_FULL, SHED_SLO, AdmissionController, estimated_flow
from .dispatcher import (
    DISPATCHED,
    PARKED,
    REQUEUED,
    SHED,
    DispatchDecision,
    Dispatcher,
)
from .driver import DriveReport, build_drive_instance, drive, percentile
from .frontend import AddressInUseError, ServeConfig, ServeService, build_service, serve
from .journal import (
    Journal,
    JournalCorruptError,
    JournalError,
    JournalRecord,
    Recovery,
)
from .loopback import LoopbackResult, run_loopback
from .metrics import ServeMetrics
from .protocol import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    FrameTooLargeError,
    ProtocolError,
    decode_frame,
    encode_frame,
    check_version,
    read_frame,
    task_from_wire,
    task_to_wire,
    version_error,
    versioned,
    write_frame,
)
from .resilient import CircuitBreaker, ClientResilience, ResilienceExhausted
from .supervisor import ShardSupervisor
from .shard import (
    Route,
    ShardPlan,
    ShardRouter,
    partition_instance,
    plan_for_instance,
)

__all__ = [
    "AddressInUseError",
    "AdmissionController",
    "CircuitBreaker",
    "ClientResilience",
    "DISPATCHED",
    "DispatchDecision",
    "Dispatcher",
    "DriveReport",
    "FrameTooLargeError",
    "Journal",
    "JournalCorruptError",
    "JournalError",
    "JournalRecord",
    "LoopbackResult",
    "MAX_FRAME",
    "PARKED",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "REQUEUED",
    "Recovery",
    "ResilienceExhausted",
    "Route",
    "SHED",
    "SHED_QUEUE_FULL",
    "SHED_SLO",
    "ServeConfig",
    "ServeMetrics",
    "ServeService",
    "ShardPlan",
    "ShardRouter",
    "ShardSupervisor",
    "build_drive_instance",
    "build_service",
    "check_version",
    "decode_frame",
    "drive",
    "encode_frame",
    "estimated_flow",
    "partition_instance",
    "percentile",
    "plan_for_instance",
    "read_frame",
    "run_loopback",
    "serve",
    "task_from_wire",
    "task_to_wire",
    "version_error",
    "versioned",
    "write_frame",
]
