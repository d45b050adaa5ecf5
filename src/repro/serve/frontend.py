"""The asyncio serving layer: workers, frontend, live faults.

:class:`ServeService` enacts the virtual-clocked decisions of a
:class:`~repro.serve.shard.router.ShardRouter` in real time: one
asyncio worker per machine pulls dispatched requests off its FIFO
queue and "serves" each for its realised service time (the policy's
``charge`` on that machine) times ``time_scale`` wall seconds — the
same one-task-at-a-time, run-to-completion machine model as the
engine.  A single server is the one-shard fleet
(:meth:`~repro.serve.shard.plan.ShardPlan.single`, the default), where
the router hands every request straight to its one
:class:`~repro.serve.dispatcher.Dispatcher`; ``shards=N`` runs N
dispatcher shards behind the interval-aware router on the same
endpoint (Theorem 6: on a disjoint plan, N independent copies of the
single-server rule).  The frontend accepts :mod:`repro.serve.protocol`
frames over a unix socket or TCP and answers every ``submit``
immediately with the dispatch decision (the push model: no response
ever waits on service completion).

The division of labour is strict: *which shard and machine gets a
request* is decided by the router from the request's virtual release
stamp, so assignments are reproducible run over run; the asyncio layer
only controls *when* the work physically happens, which is where
wall-clock jitter lives (and is measured, in the ``wall_flow``
histogram).

Besides ``submit``/``stats``/``drain``/``ping``/``shutdown`` the
frontend answers the router ops:

``{"op": "route"}``
    the shard plan (``ShardPlan.to_json`` payload), so a smart client
    can route submits shard-side without a round trip per request;
``{"op": "kill", "machine": j}`` / ``{"op": "revive", "machine": j}``
    live fault injection: a kill stops the machine (its queued requests
    are re-placed over the alive machines, cross-shard when the home
    shard is out; the in-flight one finishes — drain-on-failure
    semantics), a revive brings it back and re-places parked requests;
``{"op": "detach-shard", "shard": s}`` / ``{"op": "reattach-shard", "shard": s}``
    the supervision surface (:mod:`repro.serve.supervisor`): detach
    marks a whole shard's process dead — routing degrades to the
    cross-shard failure rule or parks — and reattach rejoins it,
    re-placing anything parked in the interim.

With a journal (``journal_dir``) every state-changing op — submit and
the four fault/supervision ops alike — is validated, then logged
before it is applied and acknowledged, so a restarted service rebuilds
the fleet exactly; ``dedupe``-keyed submit retries are answered from
the original decision.  :meth:`ServeService.apply_faults` replays a
:class:`repro.faults.FaultSchedule` in scaled wall time, so the same
outage scenarios used in degraded-mode simulation drive the live
service.
"""

from __future__ import annotations

import asyncio
import errno
import socket as socket_module
import stat as stat_module
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..faults.schedule import FaultSchedule
from ..obs.recorders import MetricsRegistry
from ..obs.snapshot import write_metrics
from .dispatcher import DISPATCHED, REQUEUED, DispatchDecision, Dispatcher
from .journal import Journal, Recovery
from .protocol import (
    ProtocolError,
    check_version,
    read_frame,
    task_from_wire,
    task_to_wire,
    version_error,
    write_frame,
)
from .shard.plan import ShardPlan
from .shard.router import ShardRouter

__all__ = [
    "AddressInUseError",
    "ServeConfig",
    "ServeService",
    "build_service",
    "serve",
    "start_endpoint",
]


class AddressInUseError(OSError):
    """The requested socket path / TCP port is already bound.

    Raised instead of letting the raw :class:`OSError` escape as an
    asyncio traceback, so callers (and the CLI, which maps this to its
    own exit code) can tell "the operator pointed two services at one
    endpoint" apart from every other failure.
    """

    def __init__(self, endpoint: str, cause: OSError) -> None:
        super().__init__(cause.errno, f"address already in use: {endpoint}")
        self.endpoint = endpoint


async def start_endpoint(
    on_connection: Any,
    socket_path: str | Path | None = None,
    host: str | None = None,
    port: int | None = None,
) -> asyncio.AbstractServer:
    """Bind the server endpoint, translating EADDRINUSE into the typed
    :class:`AddressInUseError`.

    TCP binds surface EADDRINUSE on their own.  Unix sockets need a
    probe: asyncio *unlinks* an existing socket path before binding —
    it would silently steal the endpoint from a live service — so an
    existing path that still accepts connections is refused here, and
    only a stale one (dead server, connection refused) is rebound.
    """
    try:
        if socket_path is not None:
            path = str(socket_path)
            if _unix_socket_active(path):
                raise AddressInUseError(path, OSError(errno.EADDRINUSE, "address in use"))
            return await asyncio.start_unix_server(on_connection, path=path)
        return await asyncio.start_server(on_connection, host=host, port=port)
    except AddressInUseError:
        raise
    except OSError as exc:
        if exc.errno == errno.EADDRINUSE:
            endpoint = str(socket_path) if socket_path is not None else f"{host}:{port}"
            raise AddressInUseError(endpoint, exc) from exc
        raise


def _unix_socket_active(path: str) -> bool:
    """Whether ``path`` is a unix socket with a live listener behind it."""
    try:
        if not stat_module.S_ISSOCK(Path(path).stat().st_mode):
            return False
    except OSError:
        return False
    probe = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
    try:
        probe.settimeout(1.0)
        probe.connect(path)
    except OSError:
        return False  # stale socket file: safe to rebind
    finally:
        probe.close()
    return True




@dataclass(frozen=True)
class ServeConfig:
    """Construction parameters of a dispatch service.

    ``shards`` dispatcher shards (default 1: the single server) cut
    machines ``1..m`` by :meth:`ShardPlan.cut`: even intervals, or
    boundaries aligned to disjoint replication groups of ``align_k``
    (zero cross-talk).
    ``seed`` seeds randomised schedulers (shard ``s`` uses
    ``seed + s``).  ``time_scale`` is wall seconds per virtual time
    unit: a request with ``proc=0.01`` occupies its machine for
    ``0.01 * time_scale`` wall seconds.  ``slo`` / ``max_queue_depth``
    configure shard-local admission (``None`` disables each);
    ``snapshot_path`` + ``snapshot_every`` enable the periodic canonical
    metrics dump.

    ``journal_dir`` enables the write-ahead journal
    (:mod:`repro.serve.journal`): every state transition is logged
    before it is acknowledged, and a service built over a directory
    that already holds a journal *recovers* — snapshot restore plus WAL
    replay — before accepting traffic.  ``journal_fsync`` picks the
    durability policy; ``journal_snapshot_every`` triggers a state
    snapshot + log compaction every N journal records (0 = never).
    """

    m: int = 4
    shards: int = 1
    align_k: int | None = None
    scheduler: str = "eft-min"
    seed: int = 0
    slo: float | None = None
    max_queue_depth: int | None = None
    time_scale: float = 1.0
    on_unavailable: str = "park"
    snapshot_path: str | None = None
    snapshot_every: float = 1.0
    journal_dir: str | None = None
    journal_fsync: str = "commit"
    journal_snapshot_every: int = 0

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("need at least one machine")
        if self.shards < 1:
            raise ValueError("need at least one shard")
        if self.time_scale <= 0:
            raise ValueError("time_scale must be > 0")
        if self.snapshot_every <= 0:
            raise ValueError("snapshot_every must be > 0")
        if self.journal_snapshot_every < 0:
            raise ValueError("journal_snapshot_every must be >= 0")


def build_service(config: ServeConfig) -> "ServeService":
    """Wire a :class:`ServeService` from a :class:`ServeConfig`.

    With ``journal_dir`` set, an existing journal there is recovered:
    the router and its shard dispatchers are rebuilt decision-for-decision
    (the replay also re-drives the metrics recorders), recovery counters
    land in the registry, and the service resumes the unfinished work on
    start.
    """
    journal: Journal | None = None
    recovery: Recovery | None = None
    router = ShardRouter(
        ShardPlan.cut(config.m, config.shards, config.align_k),
        scheduler=config.scheduler,
        seed=config.seed,
        slo=config.slo,
        max_queue_depth=config.max_queue_depth,
        on_unavailable=config.on_unavailable,
    )
    if config.journal_dir is not None:
        journal = Journal(config.journal_dir, fsync=config.journal_fsync)
        if journal.has_state:
            t0 = time.perf_counter()
            recovery = Dispatcher.recover(journal, into=router)
            registry = router.router_registry
            registry.counter("recovery_runs_total").inc()
            registry.counter("recovery_replayed_total").inc(recovery.n_replayed)
            registry.counter("recovery_dropped_tail_total").inc(recovery.n_dropped_tail)
            registry.gauge("recovery_seconds").set(time.perf_counter() - t0)
    return ServeService(
        router,
        time_scale=config.time_scale,
        journal=journal,
        recovery=recovery,
        journal_snapshot_every=config.journal_snapshot_every,
    )


class ServeService:
    """Real-time enactment of a :class:`ShardRouter`.

    Must be :meth:`start`-ed inside a running event loop; :meth:`stop`
    cancels the workers.  ``time_scale`` converts virtual time units to
    wall seconds.
    """

    def __init__(
        self,
        router: ShardRouter,
        time_scale: float = 1.0,
        journal: Journal | None = None,
        recovery: Recovery | None = None,
        journal_snapshot_every: int = 0,
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be > 0")
        self.router = router
        self.time_scale = time_scale
        self.m = router.m
        self.journal = journal
        self.recovery = recovery
        self.journal_snapshot_every = journal_snapshot_every
        self._errors = router.router_registry.counter("errors_total")
        self._queues: dict[int, asyncio.Queue] = {}
        self._workers: list[asyncio.Task] = []
        self._t0: float | None = None
        self._outstanding = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._completed_tids: set[int] = set()
        #: dedupe key -> original decision (idempotent retries are
        #: answered from here without touching the router).
        self._dedupe: dict[str, DispatchDecision] = {}
        if recovery is not None:
            self._completed_tids = set(recovery.completed)
            self._dedupe = dict(recovery.dedupe)
            # no snapshot carries the service-side counters: credit each
            # pre-crash completion to the shard its worker ran on
            placements, plan = router.placements, router.plan
            for tid in recovery.completed:
                router.shard_metrics[plan.shard_of(placements[tid][0])].completed.inc()

    # -- journal plumbing ----------------------------------------------------
    def _journal_append(self, kind: str, data: dict[str, Any], commit: bool = False) -> None:
        if self.journal is not None:
            self.journal.append(kind, data, commit=commit)

    def _maybe_snapshot(self) -> None:
        journal = self.journal
        if (
            journal is None
            or self.journal_snapshot_every <= 0
            or journal.seq - journal.snapshot_seq < self.journal_snapshot_every
        ):
            return
        journal.write_snapshot(self._snapshot_state())
        self.router.router_registry.counter("journal_snapshots_total").inc()

    def _snapshot_state(self) -> dict[str, Any]:
        # A dedupe entry is the submit ack it replays plus the task.
        dedupe_wire = {
            key: {**self._submit_response(d), "task": task_to_wire(d.task)}
            for key, d in self._dedupe.items()
        }
        return {
            "dispatcher": self.router.state_dict(),
            "service": {
                "completed": sorted(self._completed_tids),
                "n_completed": self._completed_total(),
                "dedupe": dedupe_wire,
            },
        }

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        if self._workers:
            raise RuntimeError("service already started")
        loop = asyncio.get_running_loop()
        self._t0 = loop.time()
        self._queues = {j: asyncio.Queue() for j in range(1, self.m + 1)}
        self._workers = [
            loop.create_task(self._worker(j), name=f"serve-worker-{j}")
            for j in range(1, self.m + 1)
        ]
        if self.recovery is not None:
            # Re-enqueue the work the crashed process had placed but
            # not finished (at-least-once service; dispatch stays
            # exactly-once through the journal + dedupe cache).
            for tid, machine in self.recovery.pending():
                self._enqueue(self.router.task(tid), machine)

    async def stop(self) -> None:
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        if self.journal is not None:
            self.journal.close()

    def now(self) -> float:
        """Wall time since :meth:`start`, in virtual units."""
        if self._t0 is None:
            return 0.0
        return (asyncio.get_running_loop().time() - self._t0) / self.time_scale

    # -- request path --------------------------------------------------------
    def submit(self, task) -> DispatchDecision:
        """Route, decide and, if placed, enqueue for real-time service
        on the placed machine's worker."""
        decision = self.router.submit(task)
        if decision.status in (DISPATCHED, REQUEUED):
            self._enqueue(decision.task, decision.machine)
        return decision

    def _enqueue(self, task, machine: int, arrival: float | None = None) -> None:
        self._outstanding += 1
        self._idle.clear()
        if arrival is None:
            arrival = asyncio.get_running_loop().time()
        self._queues[machine].put_nowait((task, arrival))

    async def _worker(self, machine: int) -> None:
        queue = self._queues[machine]
        router = self.router
        sid = router.plan.shard_of(machine)
        while True:
            task, arrival = await queue.get()
            if machine not in router.dispatchers[sid].alive:
                # Killed with work still queued (race with kill's own
                # drain): route it like any displaced task.
                self._route_displaced([(task, arrival)])
                continue
            service = router.dispatchers[sid].scheduler.service_of(task.tid, task.proc)
            await asyncio.sleep(service * self.time_scale)
            loop_now = asyncio.get_running_loop().time()
            router.shard_metrics[sid].on_complete((loop_now - arrival) / self.time_scale)
            self._completed_tids.add(task.tid)
            # Completion durability rides the batch: a torn tail
            # ``complete`` only re-serves idempotent simulated work.
            self._journal_append("complete", {"tid": task.tid})
            self._outstanding -= 1
            self._settle()

    def _settle(self) -> None:
        if self._outstanding == 0:
            self._idle.set()

    def _route_displaced(self, displaced: list[tuple[Any, float]]) -> None:
        """Re-place ``(task, arrival)`` pairs off a dead machine's worker
        as one batch; a parked one re-enters the queues at a revive."""
        self._outstanding -= len(displaced)
        now = self.now()
        tasks = [task for task, _ in displaced]
        tids = [task.tid for task in tasks]
        self._journal_append("redispatch", {"tids": tids, "now": now}, commit=True)
        for decision, (_, arrival) in zip(self.router.redispatch(tasks, now), displaced):
            if decision.status == REQUEUED:
                self._enqueue(decision.task, decision.machine, arrival)
        self._settle()

    async def drain(self) -> int:
        """Wait until every dispatched request finished service (parked
        requests don't count — they hold no machine); returns the
        completion count so far."""
        await self._idle.wait()
        return self._completed_total()

    def _completed_total(self) -> int:
        """Requests served to completion: the shards' ``completed_total``
        counters summed."""
        return sum(metrics.completed.value for metrics in self.router.shard_metrics)

    # -- fault + supervision surface -----------------------------------------
    def _check_machine(self, machine: int) -> None:
        if not 1 <= machine <= self.m:
            raise ValueError(f"machine {machine} outside 1..{self.m}")

    def _enqueue_replaced(self, replaced: list[DispatchDecision]) -> int:
        arrival = asyncio.get_running_loop().time()
        for decision in replaced:
            self._enqueue(decision.task, decision.machine, arrival)
        return len(replaced)

    def kill(self, machine: int) -> int:
        """Stop ``machine``: no further dispatches, and its queued
        requests are re-placed fleet-wide as one batch in queue order
        (journaled as one ``redispatch`` record after the ``kill``; the
        in-flight request finishes).  Returns how many were displaced."""
        self._check_machine(machine)
        self._journal_append("kill", {"machine": machine, "now": self.now()}, commit=True)
        self.router.kill(machine)
        displaced = []
        queue = self._queues.get(machine)
        if queue is not None:
            while not queue.empty():
                displaced.append(queue.get_nowait())
        if displaced:
            self._route_displaced(displaced)
        return len(displaced)

    def revive(self, machine: int) -> int:
        """Revive ``machine`` and enqueue any unparked requests;
        returns how many left the parking lots."""
        self._check_machine(machine)
        now = self.now()
        self._journal_append("revive", {"machine": machine, "now": now}, commit=True)
        return self._enqueue_replaced(self.router.revive(machine, now))

    def detach_shard(self, sid: int) -> None:
        """Mark shard ``sid`` down at the router (its process died);
        idempotent — see :meth:`ShardRouter.detach_shard`."""
        self.router.check_shard(sid)
        self._journal_append("detach-shard", {"shard": sid}, commit=True)
        self.router.detach_shard(sid)

    def reattach_shard(self, sid: int) -> int:
        """Rejoin shard ``sid`` at the router and enqueue any re-placed
        router-parked requests; returns how many left the parking
        lot."""
        self.router.check_shard(sid)
        now = self.now()
        self._journal_append("reattach-shard", {"shard": sid, "now": now}, commit=True)
        return self._enqueue_replaced(self.router.reattach_shard(sid, now=now))

    async def apply_faults(self, faults: FaultSchedule) -> None:
        """Replay ``faults`` in scaled wall time (run as a background
        task alongside the frontend)."""
        if faults.max_machine() > self.m:
            raise ValueError(
                f"fault schedule references machine {faults.max_machine()}, "
                f"but the service has m={self.m}"
            )
        loop = asyncio.get_running_loop()
        t0 = self._t0 if self._t0 is not None else loop.time()
        for time_, kind, machine in faults.events():
            delay = t0 + time_ * self.time_scale - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if kind == "down":
                self.kill(machine)
            else:
                self.revive(machine)

    # -- introspection -------------------------------------------------------
    def registry(self) -> MetricsRegistry:
        """The canonical metrics view (``stats`` payload, snapshot
        files): a one-shard fleet reports under its dispatcher's own
        metric names; a sharded fleet adds every member's metrics under
        a ``shard<s>/`` or ``router/`` prefix."""
        return self.router.fleet_registry(members=self.router.n_shards > 1)

    def stats(self) -> dict[str, Any]:
        """Fleet + per-shard counters plus the live metrics snapshot
        (the ``stats`` op payload)."""
        stats = self.router.stats()
        stats.update(
            {
                "now": self.now(),
                "completed": self._completed_total(),
                "outstanding": self._outstanding,
                "metrics": self.registry().snapshot(),
            }
        )
        if self.journal is not None:
            stats["journal"] = {
                "seq": self.journal.seq,
                "snapshot_seq": self.journal.snapshot_seq,
                "dedupe_keys": len(self._dedupe),
            }
        if self.recovery is not None:
            stats["recovered"] = {
                "replayed": self.recovery.n_replayed,
                "dropped_tail": self.recovery.n_dropped_tail,
                "completed_precrash": self.recovery.n_completed,
            }
        return stats

    async def snapshot_loop(self, path: str | Path, every: float) -> None:
        """Periodically dump the canonical metrics snapshot to ``path``
        (run as a background task; the final state is written by
        :func:`serve` on shutdown)."""
        while True:
            await asyncio.sleep(every)
            write_metrics(self.registry(), path, meta={"source": "repro-serve"})

    # -- frontend ------------------------------------------------------------
    async def handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        stop_event: asyncio.Event | None = None,
    ) -> None:
        """Serve one protocol connection until EOF (or ``shutdown``,
        which also sets ``stop_event`` for the server loop).  A peer
        that vanishes mid-response (reset, broken pipe — routine under
        chaos) just ends the connection; state already committed for
        the request stays committed, and the client's retry will be
        answered from the dedupe cache."""
        try:
            while True:
                try:
                    message = await read_frame(reader)
                except ProtocolError as exc:
                    self._errors.inc()
                    await write_frame(writer, {"ok": False, "error": str(exc)})
                    break  # framing is lost; drop the connection
                if message is None:
                    break
                response = await self._handle_op(message)
                await write_frame(writer, response)
                if message.get("op") == "shutdown":
                    if stop_event is not None:
                        stop_event.set()
                    break
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    @staticmethod
    def _submit_response(d: DispatchDecision) -> dict[str, Any]:
        return {
            "ok": True,
            "op": "submit",
            "tid": d.task.tid,
            "status": d.status,
            "machine": d.machine,
            "start": d.start,
            "est_flow": d.est_flow,
            "reason": d.reason,
            "shard": d.shard,
            "handoff": d.handoff,
        }

    def _submit(self, message: dict[str, Any]) -> dict[str, Any]:
        key = message.get("dedupe")
        if key is not None and not isinstance(key, str):
            self._errors.inc()
            return {
                "ok": False,
                "op": "submit",
                "tid": message.get("tid"),
                "error": f"dedupe key must be a string, got {type(key).__name__}",
            }
        if key is not None and key in self._dedupe:
            self.router.router_registry.counter("dedupe_hits_total").inc()
            return self._submit_response(self._dedupe[key])
        try:
            task = task_from_wire(message)
        except ProtocolError as exc:
            self._errors.inc()
            return {"ok": False, "op": "submit", "tid": message.get("tid"), "error": str(exc)}
        # Write-ahead: the journal record lands (and syncs) before the
        # decision is taken or acknowledged, so a crash after this line
        # replays the submit and a retried duplicate hits the rebuilt
        # dedupe cache instead of re-dispatching.
        self._journal_append("submit", {"task": task_to_wire(task), "dedupe": key}, commit=True)
        try:
            decision = self.submit(task)
        except ValueError as exc:
            self._errors.inc()
            return {"ok": False, "op": "submit", "tid": message.get("tid"), "error": str(exc)}
        if key is not None:
            self._dedupe[key] = decision
        self._maybe_snapshot()
        return self._submit_response(decision)

    def _control(self, op: str, message: dict[str, Any]) -> dict[str, Any]:
        """The four fault/supervision ops; raises on a bad argument."""
        if op == "kill":
            return {"displaced": self.kill(int(message["machine"]))}
        if op == "revive":
            return {"unparked": self.revive(int(message["machine"]))}
        if op == "detach-shard":
            self.detach_shard(int(message["shard"]))
            return {"down": sorted(self.router.down_shards)}
        return {"unparked": self.reattach_shard(int(message["shard"]))}

    async def _handle_op(self, message: dict[str, Any]) -> dict[str, Any]:
        complaint = check_version(message)
        if complaint is not None:
            self._errors.inc()
            return version_error(message, complaint)
        op = message.get("op")
        if op == "submit":
            return self._submit(message)
        if op == "ping":
            return {"ok": True, "op": "pong", "now": self.now(), "shards": self.router.n_shards}
        if op == "route":
            return {"ok": True, "op": "route", "plan": self.router.plan.to_json()}
        if op in ("kill", "revive", "detach-shard", "reattach-shard"):
            try:
                return {"ok": True, "op": op, **self._control(op, message)}
            except (KeyError, TypeError, ValueError) as exc:
                self._errors.inc()
                return {"ok": False, "op": op, "error": str(exc)}
        if op == "stats":
            return {"ok": True, "op": "stats", "stats": self.stats()}
        if op == "drain":
            completed = await self.drain()
            return {"ok": True, "op": "drain", "completed": completed}
        if op == "shutdown":
            return {"ok": True, "op": "shutdown"}
        self._errors.inc()
        return {"ok": False, "error": f"unknown op {op!r}"}


async def serve(
    config: ServeConfig,
    socket_path: str | Path | None = None,
    host: str | None = None,
    port: int | None = None,
    faults: FaultSchedule | None = None,
) -> dict[str, Any]:
    """Run a dispatch service until a client sends ``shutdown`` (or the
    task is cancelled); returns the final stats.

    Exactly one endpoint must be given: a unix ``socket_path`` or a TCP
    ``host``/``port`` pair.
    """
    if (socket_path is None) == (host is None or port is None):
        raise ValueError("serve needs exactly one of socket_path or host+port")
    service = build_service(config)
    await service.start()
    stop_event = asyncio.Event()

    async def on_connection(reader, writer):
        await service.handle_connection(reader, writer, stop_event)

    try:
        server = await start_endpoint(
            on_connection, socket_path=socket_path, host=host, port=port
        )
    except OSError:
        await service.stop()
        raise
    background: list[asyncio.Task] = []
    loop = asyncio.get_running_loop()
    if faults is not None and faults:
        background.append(loop.create_task(service.apply_faults(faults)))
    if config.snapshot_path is not None:
        background.append(
            loop.create_task(service.snapshot_loop(config.snapshot_path, config.snapshot_every))
        )
    try:
        async with server:
            await stop_event.wait()
    finally:
        for task in background:
            task.cancel()
        await asyncio.gather(*background, return_exceptions=True)
        await service.stop()
        if config.snapshot_path is not None:
            write_metrics(service.registry(), config.snapshot_path, meta={"source": "repro-serve"})
    return service.stats()
