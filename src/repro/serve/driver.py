"""Open-loop load generator for the dispatch service.

The driver replays a scheduling :class:`~repro.core.task.Instance` —
built from a :class:`~repro.simulation.workload.WorkloadSpec` or a
:class:`~repro.simulation.kvstore.KeyValueStore` request stream — over
the wire at the workload's own Poisson pacing: request ``i`` is sent at
wall offset ``release_i * time_scale`` whether or not earlier responses
have arrived (open loop, so a saturated service sees the true arrival
process, not one throttled by its own latency).  Responses are
collected concurrently on the same connection.  Given a
:class:`~repro.serve.resilient.ClientResilience` envelope, the same
driver also survives a lossy transport (dedupe-keyed resends over
reconnects); without one it is a single plain connection.

Because the service decides placements from the *virtual* release
stamps carried by the requests, a drive of the same workload (same
seed) reports identical task→machine assignments on every run — the
:attr:`DriveReport.assignments_digest` makes that a one-line check.
"""

from __future__ import annotations

import asyncio
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from ..core.task import Instance, Task
from ..simulation.kvstore import KeyValueStore
from ..simulation.workload import WorkloadSpec, generate_workload
from ..obs.rollup import rollup_snapshots
from .protocol import ProtocolError, read_frame, task_to_wire, versioned, write_frame
from .resilient import ClientResilience, ResilienceExhausted

__all__ = ["DriveReport", "build_drive_instance", "drive", "percentile"]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values``: the sorted value at
    index ``round(q * (n - 1))``.

    ``round`` is Python's round-half-to-even, so this is neither
    nearest-rank nor interpolated: for ``n = 4`` and ``q = 0.5`` the
    index is ``round(1.5) = 2``, the third value.

    Raises :class:`ValueError` on an empty sequence — a percentile of
    nothing is not 0, and silently reporting one hid empty-tail bugs.
    """
    if not values:
        raise ValueError("percentile() of an empty sequence")
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[idx]


@dataclass
class DriveReport:
    """Outcome of one drive run.

    ``n_errors`` counts requests the server answered with ``ok: false``
    *plus* submits that never got a response — a correct run reports
    zero (the "no requests dropped by a bug" invariant; shed requests
    are accounted separately, they are policy, not bugs).
    """

    n_sent: int = 0
    n_acked: int = 0
    n_dispatched: int = 0
    n_shed: int = 0
    n_parked: int = 0
    n_errors: int = 0
    n_retries: int = 0
    n_reconnects: int = 0
    n_dup_acks: int = 0
    shed_by_reason: dict[str, int] = field(default_factory=dict)
    est_flows: list[float] = field(default_factory=list)
    assignments: list[tuple[int, int]] = field(default_factory=list)
    elapsed: float = 0.0
    target_rate: float | None = None
    server_stats: dict[str, Any] | None = None

    @property
    def achieved_rate(self) -> float:
        return self.n_sent / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def assignments_digest(self) -> str:
        """SHA-256 over the ``tid:machine`` assignment list in
        submission order — equal digests mean identical placements."""
        payload = ",".join(f"{tid}:{machine}" for tid, machine in self.assignments)
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_text(self) -> str:
        lines = [
            f"drive report: sent {self.n_sent} requests in {self.elapsed:.3f} s "
            + (
                f"(target {self.target_rate:.1f} rps, achieved {self.achieved_rate:.1f} rps)"
                if self.target_rate
                else f"(achieved {self.achieved_rate:.1f} rps)"
            ),
            f"acked: {self.n_acked}/{self.n_sent}  errors: {self.n_errors}",
            f"dispatched: {self.n_dispatched}  shed: {self.n_shed}"
            + (
                " (" + ", ".join(f"{k} {v}" for k, v in sorted(self.shed_by_reason.items())) + ")"
                if self.shed_by_reason
                else ""
            )
            + f"  parked: {self.n_parked}",
        ]
        if self.n_retries or self.n_reconnects or self.n_dup_acks:
            lines.append(
                f"resilience: retries {self.n_retries}  reconnects {self.n_reconnects}  "
                f"duplicate acks {self.n_dup_acks}"
            )
        if self.est_flows:
            lines.append(
                "est flow (virtual units): "
                f"p50={percentile(self.est_flows, 0.50):.6g}  "
                f"p99={percentile(self.est_flows, 0.99):.6g}  "
                f"max={max(self.est_flows):.6g}"
            )
        if self.server_stats is not None:
            s = self.server_stats
            wall = s.get("metrics", {}).get("histograms", {}).get("wall_flow")
            extra = ""
            if wall and wall.get("count"):
                extra = (
                    f", wall flow mean={wall['sum'] / wall['count']:.6g} "
                    f"max={wall['max']:.6g} (virtual units)"
                )
            lines.append(f"server: completed {s.get('completed', 0)}{extra}")
        lines.append(f"assignments sha256: {self.assignments_digest}")
        return "\n".join(lines)

    @classmethod
    def merge(
        cls, reports: Sequence["DriveReport"], order: Sequence[int] | None = None
    ) -> "DriveReport":
        """Merge per-shard drive reports into one fleet report.

        Counters sum; ``elapsed`` is the slowest shard (the drives ran
        concurrently); assignments and estimated flows are reassembled
        in ``order`` (the tid sequence of the full instance — submission
        order, so the merged :attr:`assignments_digest` is directly
        comparable to a single-connection drive of the same workload),
        falling back to tid order.  Per-shard server stats are kept
        under ``"shards"`` with their metrics rolled up fleet-wide
        (:func:`repro.obs.rollup.rollup_snapshots`).
        """
        if not reports:
            raise ValueError("merge() of no reports")
        merged = cls()
        placed: list[tuple[int, int, float]] = []
        targets = [r.target_rate for r in reports if r.target_rate]
        merged.target_rate = sum(targets) if targets else None
        for r in reports:
            merged.n_sent += r.n_sent
            merged.n_acked += r.n_acked
            merged.n_dispatched += r.n_dispatched
            merged.n_shed += r.n_shed
            merged.n_parked += r.n_parked
            merged.n_errors += r.n_errors
            merged.n_retries += r.n_retries
            merged.n_reconnects += r.n_reconnects
            merged.n_dup_acks += r.n_dup_acks
            for reason, count in r.shed_by_reason.items():
                merged.shed_by_reason[reason] = merged.shed_by_reason.get(reason, 0) + count
            placed.extend(
                (tid, machine, flow)
                for (tid, machine), flow in zip(r.assignments, r.est_flows)
            )
            merged.elapsed = max(merged.elapsed, r.elapsed)
        rank = (
            {tid: i for i, tid in enumerate(order)}
            if order is not None
            else {tid: tid for tid, _, _ in placed}
        )
        placed.sort(key=lambda p: rank.get(p[0], p[0]))
        merged.assignments = [(tid, machine) for tid, machine, _ in placed]
        merged.est_flows = [flow for _, _, flow in placed]
        shard_stats = [r.server_stats for r in reports if r.server_stats is not None]
        if shard_stats:
            merged.server_stats = {
                "shards": shard_stats,
                "completed": sum(s.get("completed", 0) for s in shard_stats),
                "metrics": rollup_snapshots(
                    {
                        f"shard{i}": s["metrics"]
                        for i, s in enumerate(shard_stats)
                        if "metrics" in s
                    },
                    members=False,
                ),
            }
        return merged


def build_drive_instance(
    source: str = "spec",
    m: int = 4,
    n: int = 200,
    rate: float = 100.0,
    k: int = 2,
    strategy: str = "overlapping",
    proc: float = 0.01,
    seed: int = 0,
    n_keys: int = 512,
    key_zipf_s: float = 0.0,
) -> Instance:
    """Build the request stream a drive replays.

    ``source="spec"`` draws a Figure-11-style workload (machine-level
    popularity) from a :class:`WorkloadSpec`; ``source="kv"`` runs the
    key-granularity pipeline (hash ring, per-key replica sets) of
    :class:`KeyValueStore`.  Either way releases are Poisson with
    ``rate`` arrivals per virtual unit and every request runs ``proc``
    units, so the offered load is ``rate * proc / m``.
    """
    if rate <= 0:
        raise ValueError("rate must be > 0")
    if proc <= 0:
        raise ValueError("proc must be > 0")
    rng = np.random.default_rng(seed)
    if source == "spec":
        spec = WorkloadSpec(m=m, n=n, lam=rate, k=k, strategy=strategy, case="uniform", proc=proc)
        return generate_workload(spec, rng=rng)
    if source == "kv":
        store = KeyValueStore.build(m, n_keys=n_keys, k=k, strategy=strategy, key_zipf_s=key_zipf_s)
        return store.request_stream(lam=rate, n=n, rng=rng, proc=proc)
    raise ValueError(f"unknown drive source {source!r} (expected 'spec' or 'kv')")


async def drive(
    instance: Instance,
    socket_path: str | Path | None = None,
    host: str | None = None,
    port: int | None = None,
    time_scale: float = 1.0,
    target_rate: float | None = None,
    drain: bool = True,
    stats: bool = True,
    shutdown: bool = False,
    resilience: ClientResilience | None = None,
    dedupe_prefix: str = "drive",
) -> DriveReport:
    """Replay ``instance`` against a running service and report.

    Requests go out open-loop at ``release * time_scale`` wall offsets;
    after the last submit the driver (optionally) drains the service,
    pulls the final stats and (optionally) shuts the server down.

    With ``resilience=None`` the drive uses one connection, sends plain
    submits and raises if the connection is lost.  A
    :class:`~repro.serve.resilient.ClientResilience` envelope makes it
    survive a lossy transport: every submit carries the dedupe key
    ``"{dedupe_prefix}:{tid}"`` and must be acked within
    ``ack_timeout``; a timeout, dropped connection or corrupt frame
    reconnects after backoff (held off by the circuit breaker) and
    resends everything sent-but-unacked in tid order before fresh
    sends, so the service first sees every submit in release order and
    answers repeats from its dedupe cache.  Such a run acks every
    submit exactly once or raises
    :class:`~repro.serve.resilient.ResilienceExhausted`.
    """
    if (socket_path is None) == (host is None or port is None):
        raise ValueError("drive needs exactly one of socket_path or host+port")
    if time_scale <= 0:
        raise ValueError("time_scale must be > 0")
    # Plain mode catches nothing (a lost connection raises) and never
    # records a failure, so its breaker never holds a connect off.
    recoverable: tuple[type[BaseException], ...] = ()
    ack_timeout = control_timeout = None
    if resilience is not None:
        recoverable = (ProtocolError, OSError, EOFError, asyncio.TimeoutError, TimeoutError)
        ack_timeout = resilience.ack_timeout
        control_timeout = max(10.0, 20 * resilience.ack_timeout)
    breaker = (resilience or ClientResilience()).make_breaker()
    report = DriveReport(target_rate=target_rate)
    tasks = list(instance)
    n = len(tasks)
    acks: dict[int, dict[str, Any]] = {}
    unacked: dict[int, Task] = {}  # sent but not yet acked, keyed by tid
    n_unaddressed = 0  # plain mode: error frames that name no tid
    next_i = 0  # index of the next fresh (never-sent) task
    attempt = 0  # consecutive no-progress connection epochs
    loop = asyncio.get_running_loop()
    reader: asyncio.StreamReader | None = None
    writer: asyncio.StreamWriter | None = None

    async def connect() -> None:
        nonlocal reader, writer
        hold = breaker.holdoff(loop.time())
        if hold > 0:
            await asyncio.sleep(hold)
        if socket_path is not None:
            reader, writer = await asyncio.open_unix_connection(path=str(socket_path))
        else:
            reader, writer = await asyncio.open_connection(host=host, port=port)

    async def teardown() -> None:
        nonlocal reader, writer
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass
        reader = writer = None

    async def backoff(progress: bool, what: str) -> None:
        nonlocal attempt
        await teardown()
        if progress:
            attempt = 0
            breaker.record_success()
        else:
            attempt += 1
        breaker.record_failure(loop.time())
        if attempt > resilience.retry.retries:
            raise ResilienceExhausted(
                f"{what} after {attempt} consecutive failed connection attempts"
            )
        report.n_reconnects += 1
        await asyncio.sleep(resilience.retry.delay(dedupe_prefix, max(attempt, 1)))

    def submit_frame(task: Task) -> dict[str, Any]:
        message = {"op": "submit", **task_to_wire(task)}
        if resilience is not None:
            message["dedupe"] = f"{dedupe_prefix}:{task.tid}"
        return versioned(message)

    async def sender(t0: float) -> None:
        nonlocal next_i
        for tid in sorted(unacked):
            await write_frame(writer, submit_frame(unacked[tid]))
            report.n_retries += 1
        while next_i < n:
            task = tasks[next_i]
            delay = t0 + task.release * time_scale - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            await write_frame(writer, submit_frame(task))
            unacked[task.tid] = task
            report.n_sent += 1
            next_i += 1

    async def receiver() -> None:
        nonlocal n_unaddressed
        while len(acks) + n_unaddressed < n:
            try:
                message = await asyncio.wait_for(read_frame(reader), ack_timeout)
            except asyncio.TimeoutError:
                if unacked:
                    raise
                continue  # nothing in flight — keep listening
            if message is None:
                raise ConnectionResetError("server closed the connection")
            tid = message.get("tid")
            if tid is None:
                if resilience is not None:
                    # the server lost framing on our stream and is
                    # about to drop the connection
                    raise ProtocolError(str(message.get("error", "unaddressed error frame")))
                n_unaddressed += 1  # tallied below as its task's error
                continue
            tid = int(tid)
            if tid in acks:
                report.n_dup_acks += 1
                continue
            acks[tid] = message
            unacked.pop(tid, None)

    async def request(message: dict[str, Any]) -> dict[str, Any]:
        nonlocal attempt
        while True:
            try:
                if writer is None:
                    await connect()
                await write_frame(writer, message)
                response = await asyncio.wait_for(read_frame(reader), control_timeout)
                if response is None:
                    raise ConnectionResetError("server closed during control op")
                attempt = 0
                breaker.record_success()
                return response
            except recoverable:
                await backoff(False, f"control op {message.get('op')!r} failed")

    t0 = loop.time()
    try:
        while len(acks) + n_unaddressed < n:
            acked_before = len(acks)
            try:
                await connect()
                epoch = [loop.create_task(sender(t0)), loop.create_task(receiver())]
                try:
                    await asyncio.wait(epoch, return_when=asyncio.FIRST_EXCEPTION)
                finally:
                    for task in epoch:
                        task.cancel()
                    await asyncio.gather(*epoch, return_exceptions=True)
                for task in epoch:
                    if not task.cancelled() and task.exception() is not None:
                        raise task.exception()
            except recoverable:
                await backoff(len(acks) > acked_before, f"{len(acks)}/{n} acked")
            else:
                attempt = 0
                breaker.record_success()
        report.elapsed = loop.time() - t0
        if drain:
            await request({"op": "drain"})
        if stats:
            response = await request({"op": "stats"})
            if response.get("ok"):
                report.server_stats = response.get("stats")
        if shutdown:
            await request({"op": "shutdown"})
    finally:
        await teardown()

    for task in tasks:
        ack = acks.get(task.tid)
        if ack is None or not ack.get("ok"):
            report.n_errors += 1
            continue
        report.n_acked += 1
        status = ack.get("status")
        if status == "dispatched" or status == "requeued":
            report.n_dispatched += 1
            report.assignments.append((ack["tid"], ack["machine"]))
            report.est_flows.append(float(ack["est_flow"]))
        elif status == "shed":
            report.n_shed += 1
            reason = ack.get("reason") or "unknown"
            report.shed_by_reason[reason] = report.shed_by_reason.get(reason, 0) + 1
        elif status == "parked":
            report.n_parked += 1
    return report
