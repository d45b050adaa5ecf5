"""Self-contained loopback runs: serve a request stream and drive it.

:func:`run_loopback` is the serve tier's one run harness — the
zero-setup way to exercise the whole serving stack over unix sockets in
a temporary directory.  Its arguments pick the deployment:

* ``shards=None`` — the in-process service of ``config``
  (:func:`~repro.serve.frontend.build_service`) and the driver share
  one event loop.  Only this mode takes a fault schedule (``faults``),
  writes a metrics snapshot (``metrics_path``) and admits with
  ``config.slo`` / ``config.max_queue_depth``.
* ``shards=N`` — one real server process per shard, started by a
  :class:`~repro.serve.supervisor.ShardSupervisor`, with the
  :class:`~repro.serve.shard.plan.ShardPlan` applied client side (one
  connection per shard; reports merge in submission order).  Shard
  ``s`` serves with ``config.seed + s``, matching
  :class:`~repro.serve.shard.router.ShardRouter`, so on a disjoint plan
  the merged assignment digest equals a single-server drive of the
  same workload (Theorem 6 composition, checked by ``make
  shard-smoke``).
* ``chaos`` and/or ``kill_shard`` (with ``shards=N``) — every shard
  journals (``config.journal_fsync``, ``config.journal_snapshot_every``),
  the supervisor restarts any shard that dies (``kill_shard`` is
  SIGKILLed ``kill_after`` of the way through the release span), each
  connection runs through a seeded :class:`~repro.chaos.proxy.ChaosProxy`
  and the drives are resilient (``resilience``, default
  :class:`~repro.serve.resilient.ClientResilience`).  A correct stack
  reports ``lost: 0`` and ``double-dispatched: 0`` with the digest of
  the undisturbed run (``make chaos-smoke``).

Used by ``repro bench-serve``, the serve smokes and the throughput
ablation.
"""

from __future__ import annotations

import asyncio
import dataclasses
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..campaigns.spec import stable_seed
from ..chaos import ChaosConfig, ChaosProxy
from ..core.task import Instance
from ..faults.schedule import FaultSchedule
from ..obs.snapshot import write_metrics
from .driver import DriveReport, drive
from .frontend import ServeConfig, build_service
from .resilient import ClientResilience
from .shard.plan import ShardPlan, partition_instance, plan_for_instance
from .supervisor import ShardSupervisor

__all__ = ["LoopbackResult", "run_loopback"]


@dataclass
class LoopbackResult:
    """Outcome of one loopback run: the (merged) drive report plus the
    loss / duplication accounting and, for a chaos run, every fault and
    recovery counter.

    ``lost`` counts submitted-but-never-acknowledged tasks;
    ``double_dispatched`` is the server-side dispatch count in excess of
    the unique client-side dispatch acks (``None`` when the servers'
    stats do not pin it down: always for the in-process service, whose
    ``dispatched`` also counts fault re-placements).
    """

    report: DriveReport
    n_tasks: int
    lost: int
    double_dispatched: int | None = None
    plan: ShardPlan | None = None
    chaos: dict[str, Any] | None = None
    killed_shards: list[int] = field(default_factory=list)
    recovery_seconds: list[float] = field(default_factory=list)
    restarts: dict[int, int] = field(default_factory=dict)
    proxy_stats: dict[int, dict[str, int]] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        totals: dict[str, int] = {}
        for stats in self.proxy_stats.values():
            for key, value in stats.items():
                totals[key] = totals.get(key, 0) + value
        return {
            "n_tasks": self.n_tasks,
            "lost": self.lost,
            "double_dispatched": self.double_dispatched,
            "killed_shards": self.killed_shards,
            "recovery_seconds": self.recovery_seconds,
            "restarts": {str(sid): n for sid, n in sorted(self.restarts.items())},
            "chaos": self.chaos,
            "faults": totals,
            "retries": self.report.n_retries,
            "reconnects": self.report.n_reconnects,
            "dup_acks": self.report.n_dup_acks,
            "elapsed": self.report.elapsed,
            "assignments_digest": self.report.assignments_digest,
        }

    def to_text(self) -> str:
        lines = [] if self.plan is None else [self.plan.describe()]
        if self.chaos is not None:
            lines += [
                f"chaos bench: {self.n_tasks} tasks, "
                f"killed shards {self.killed_shards or 'none'}",
                f"lost: {self.lost}  double-dispatched: "
                + ("unknown" if self.double_dispatched is None else str(self.double_dispatched)),
            ]
            if self.recovery_seconds:
                mean = sum(self.recovery_seconds) / len(self.recovery_seconds)
                lines.append(
                    f"recoveries: {len(self.recovery_seconds)} "
                    f"(mean {mean:.3f} s, max {max(self.recovery_seconds):.3f} s)"
                )
            totals = self.to_json()["faults"]
            if totals.get("frames"):
                lines.append(
                    "chaos faults: "
                    + "  ".join(
                        f"{k} {totals[k]}"
                        for k in ("frames", "dropped", "truncated", "corrupted", "duplicated")
                        if k in totals
                    )
                )
        lines.append(self.report.to_text())
        return "\n".join(lines)


def run_loopback(
    instance: Instance,
    config: ServeConfig,
    shards: int | None = None,
    plan: ShardPlan | None = None,
    target_rate: float | None = None,
    faults: FaultSchedule | None = None,
    metrics_path: str | Path | None = None,
    chaos: ChaosConfig | None = None,
    resilience: ClientResilience | None = None,
    kill_shard: int | None = None,
    kill_after: float = 0.5,
) -> LoopbackResult:
    """Serve ``instance`` over unix-socket loopback and drive it at
    ``config.time_scale`` (see the module docstring for the modes).

    ``plan`` defaults to :func:`plan_for_instance`; ``resilience`` also
    applies to a clean run; a final canonical metrics snapshot of the
    in-process service is written to ``metrics_path`` if given.
    """
    journaled = chaos is not None or kill_shard is not None
    if shards is None:
        if plan is not None or journaled:
            raise ValueError("plan, chaos and kill_shard need shards=N")
        report = asyncio.run(_drive_service(instance, config, faults, metrics_path, resilience))
        report.target_rate = target_rate
        return LoopbackResult(report, n_tasks=len(instance), lost=len(instance) - report.n_acked)

    if faults or metrics_path is not None or (config.slo, config.max_queue_depth) != (None, None):
        raise ValueError("shards=N does not support faults, metrics_path, slo or max_queue_depth")
    if plan is None:
        plan = plan_for_instance(instance, shards)
    if not instance.m == plan.m == config.m:
        raise ValueError(f"instance has m={instance.m}, plan m={plan.m}, config m={config.m}")
    if not 0.0 <= kill_after <= 1.0:
        raise ValueError(f"kill_after must be in [0, 1], got {kill_after}")
    parts = partition_instance(instance, plan)
    if kill_shard is not None and kill_shard not in parts:
        raise ValueError(f"kill_shard={kill_shard} has no tasks (shards: {sorted(parts)})")
    if journaled:
        chaos = chaos if chaos is not None else ChaosConfig()
        resilience = resilience if resilience is not None else ClientResilience()
    max_release = max((t.release for t in instance), default=0.0)
    kill_delay = kill_after * max_release * config.time_scale
    supervisor = ShardSupervisor()
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmpdir:
        tmp = Path(tmpdir)
        for sid in parts:
            shard_config = {
                "m": config.m,
                "scheduler": config.scheduler,
                "seed": config.seed + sid,
                "time_scale": config.time_scale,
            }
            if journaled:
                shard_config.update(
                    journal_dir=str(tmp / f"journal{sid}"),
                    journal_fsync=config.journal_fsync,
                    journal_snapshot_every=config.journal_snapshot_every,
                )
            supervisor.add_shard(sid, shard_config, tmp / f"shard{sid}.sock")
        try:
            supervisor.start_all()
            reports, proxy_stats, killed = asyncio.run(
                _drive_fleet(
                    parts, supervisor, tmp, config.time_scale, chaos, resilience,
                    kill_shard, kill_delay,
                )
            )
        finally:
            supervisor.stop_all()
    report = DriveReport.merge(reports, order=[t.tid for t in instance])
    report.target_rate = target_rate
    shard_stats = [r.server_stats for r in reports if r.server_stats is not None]
    double_dispatched = None
    if len(shard_stats) == len(parts) and all("dispatched" in s for s in shard_stats):
        double_dispatched = sum(s["dispatched"] for s in shard_stats) - report.n_dispatched
    return LoopbackResult(
        report,
        n_tasks=len(instance),
        lost=len(instance) - report.n_acked,
        double_dispatched=double_dispatched,
        plan=plan,
        chaos=None if chaos is None else chaos.to_json(),
        killed_shards=killed,
        recovery_seconds=list(supervisor.recovery_seconds),
        restarts=dict(supervisor.restarts),
        proxy_stats=proxy_stats,
    )


async def _drive_service(
    instance: Instance,
    config: ServeConfig,
    faults: FaultSchedule | None,
    metrics_path: str | Path | None,
    resilience: ClientResilience | None,
) -> DriveReport:
    service = build_service(config)
    await service.start()
    fault_task = None
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        socket_path = str(Path(tmp) / "serve.sock")
        server = await asyncio.start_unix_server(service.handle_connection, path=socket_path)
        try:
            if faults:
                fault_task = asyncio.get_running_loop().create_task(service.apply_faults(faults))
            async with server:
                report = await drive(
                    instance,
                    socket_path=socket_path,
                    time_scale=config.time_scale,
                    resilience=resilience,
                )
        finally:
            if fault_task is not None:
                fault_task.cancel()
                await asyncio.gather(fault_task, return_exceptions=True)
            await service.stop()
    if metrics_path is not None:
        write_metrics(service.registry(), metrics_path, meta={"source": "repro-serve-loopback"})
    return report


async def _drive_fleet(
    parts: Mapping[int, Instance],
    supervisor: ShardSupervisor,
    tmp: Path,
    time_scale: float,
    chaos: ChaosConfig | None,
    resilience: ClientResilience | None,
    kill_shard: int | None,
    kill_delay: float,
) -> tuple[list[DriveReport], dict[int, dict[str, int]], list[int]]:
    """Drive every shard's substream concurrently; with ``chaos`` each
    connection goes through a proxy and the supervisor restarts dead
    shards while the drives run."""
    sids = sorted(parts)
    endpoints = {sid: supervisor.socket_path(sid) for sid in sids}
    proxies: dict[int, ChaosProxy] = {}
    if chaos is not None:
        for sid in sids:
            # Decorrelate the fault streams across shards while keeping
            # the whole run a pure function of the one config seed.
            per_shard = dataclasses.replace(chaos, seed=stable_seed(chaos.seed, "shard", sid))
            endpoints[sid] = str(tmp / f"proxy{sid}.sock")
            proxies[sid] = ChaosProxy(
                per_shard, upstream_socket=supervisor.socket_path(sid), listen_socket=endpoints[sid]
            )
    killed: list[int] = []
    background: list[asyncio.Task] = []
    loop = asyncio.get_running_loop()

    async def killer() -> None:
        await asyncio.sleep(kill_delay)
        await asyncio.to_thread(supervisor.kill, kill_shard)
        killed.append(kill_shard)

    try:
        for proxy in proxies.values():
            await proxy.start()
        if chaos is not None:
            background.append(loop.create_task(supervisor.watch()))
        if kill_shard is not None:
            background.append(loop.create_task(killer()))
        reports = await asyncio.gather(
            *(
                drive(
                    parts[sid],
                    socket_path=endpoints[sid],
                    time_scale=time_scale,
                    resilience=resilience,
                    dedupe_prefix=f"shard{sid}",
                )
                for sid in sids
            )
        )
    finally:
        for task in background:
            task.cancel()
        await asyncio.gather(*background, return_exceptions=True)
        for proxy in proxies.values():
            await proxy.stop()
    return list(reports), {sid: proxy.stats() for sid, proxy in proxies.items()}, killed
