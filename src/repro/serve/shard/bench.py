"""Multi-process sharded loopback: real throughput, same placements.

An in-process ``repro serve --shards N`` runs the router frontend, but
all N shards share one event loop — it cannot show a throughput win.  This module runs the sharded
tier the way a deployment would: **one server process per shard**, each
a plain single-dispatcher service on its own unix socket, with the
:class:`~repro.serve.shard.plan.ShardPlan` applied *client side* (the
``route``-op pattern: fetch the plan once, route every submit locally).
The driver opens one connection per shard and drives the per-shard
substreams concurrently; reports merge into one fleet
:class:`~repro.serve.driver.DriveReport` whose assignments are
reassembled in submission order — so on a disjoint plan with a
deterministic scheduler the merged ``assignments_digest`` is *equal*
to a single-server drive of the same workload (Theorem 6 composition,
checked by ``make shard-smoke``), while the achieved request rate
scales with the shard count once one server process saturates.

Used by ``repro bench-serve --shards N`` and the throughput benchmark.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import socket
import tempfile
import time
from pathlib import Path
from typing import Mapping, Sequence

from ...core.task import Instance, Task
from ..driver import DriveReport, drive
from .plan import ShardPlan

__all__ = [
    "partition_instance",
    "plan_for_instance",
    "run_sharded_loopback",
    "run_sharded_loopback_sync",
]


def plan_for_instance(instance: Instance, n_shards: int) -> ShardPlan:
    """The plan a sharded run of ``instance`` should use: a disjoint
    (zero cross-talk) cut of its processing-set family when one exists,
    else an even interval cover (straddling sets routed by fragment)."""
    if n_shards == 1:
        return ShardPlan.single(instance.m)
    try:
        return ShardPlan.for_family(instance.processing_sets(), instance.m, n_shards)
    except ValueError:
        return ShardPlan.even(instance.m, n_shards)


def partition_instance(instance: Instance, plan: ShardPlan) -> dict[int, Instance]:
    """Client-side routing: split ``instance`` into per-shard
    substreams, restricting straddling sets to their owner fragment
    (exactly what the router does server-side).  Shards with no tasks
    are omitted."""
    per: dict[int, list[Task]] = {}
    for task in instance:
        route = plan.route(task.eligible(instance.m))
        sub = task if route.is_local else task.restricted_to(route.owner_fragment)
        per.setdefault(route.owner, []).append(sub)
    return {
        sid: Instance(m=instance.m, tasks=tuple(tasks)) for sid, tasks in sorted(per.items())
    }


def _shard_server_main(config_kwargs: dict, socket_path: str) -> None:
    """Entry point of one shard server process (spawn-safe)."""
    import asyncio as _asyncio

    from ..frontend import ServeConfig, serve

    _asyncio.run(serve(ServeConfig(**config_kwargs), socket_path=socket_path))


def _wait_for_socket(path: str, timeout: float = 15.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if Path(path).exists():
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(path)
                return
            except OSError:
                pass
            finally:
                probe.close()
        time.sleep(0.02)
    raise TimeoutError(f"shard server socket {path} not accepting within {timeout}s")


async def _drive_shards(
    parts: Mapping[int, Instance],
    socket_paths: Mapping[int, str],
    order: Sequence[int],
    time_scale: float,
    target_rate: float | None,
) -> DriveReport:
    sids = sorted(parts)
    reports = await asyncio.gather(
        *(
            drive(
                parts[sid],
                socket_path=socket_paths[sid],
                time_scale=time_scale,
                shutdown=True,
            )
            for sid in sids
        )
    )
    merged = DriveReport.merge(list(reports), order=order)
    merged.target_rate = target_rate
    return merged


def run_sharded_loopback_sync(
    instance: Instance,
    n_shards: int,
    scheduler: str = "eft-min",
    seed: int = 0,
    time_scale: float = 1.0,
    target_rate: float | None = None,
    plan: ShardPlan | None = None,
) -> DriveReport:
    """Drive ``instance`` against ``n_shards`` real server processes
    over unix-socket loopback and return the merged fleet report.

    Each shard process runs a plain single-dispatcher service (seeded
    ``seed + shard_id``, matching :class:`ShardRouter`); the plan is
    applied client side.  ``n_shards=1`` runs the identical machinery
    with one process — the fair baseline for throughput comparisons.
    """
    if plan is None:
        plan = plan_for_instance(instance, n_shards)
    if plan.m != instance.m:
        raise ValueError(f"instance has m={instance.m}, plan has m={plan.m}")
    parts = partition_instance(instance, plan)
    order = [t.tid for t in instance]
    ctx = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory(prefix="repro-serve-shard-") as tmp:
        socket_paths = {sid: str(Path(tmp) / f"shard{sid}.sock") for sid in parts}
        procs = []
        try:
            for sid in sorted(parts):
                config_kwargs = {
                    "m": instance.m,
                    "scheduler": scheduler,
                    "seed": seed + sid,
                    "time_scale": time_scale,
                }
                proc = ctx.Process(
                    target=_shard_server_main,
                    args=(config_kwargs, socket_paths[sid]),
                    name=f"repro-shard-{sid}",
                    daemon=True,
                )
                proc.start()
                procs.append(proc)
            for sid in sorted(parts):
                _wait_for_socket(socket_paths[sid])
            report = asyncio.run(
                _drive_shards(parts, socket_paths, order, time_scale, target_rate)
            )
            # Each drive sent `shutdown`, so the servers exit on their own.
            for proc in procs:
                proc.join(timeout=10.0)
            return report
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5.0)


async def run_sharded_loopback(
    instance: Instance,
    n_shards: int,
    scheduler: str = "eft-min",
    seed: int = 0,
    time_scale: float = 1.0,
    target_rate: float | None = None,
    plan: ShardPlan | None = None,
) -> DriveReport:
    """Async wrapper over :func:`run_sharded_loopback_sync` (the server
    processes and the drive run off this loop's thread, so the caller's
    event loop stays responsive)."""
    return await asyncio.to_thread(
        run_sharded_loopback_sync,
        instance,
        n_shards,
        scheduler=scheduler,
        seed=seed,
        time_scale=time_scale,
        target_rate=target_rate,
        plan=plan,
    )
