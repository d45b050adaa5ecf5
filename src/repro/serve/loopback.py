"""Self-contained loopback runs: service + driver in one event loop.

The zero-setup way to exercise the whole serving stack — frontend,
protocol, dispatcher, admission, workers, metrics — without a separate
server process: a unix socket in a temporary directory, the service on
one side, the driver on the other.  Used by ``repro bench-serve``,
``make serve-smoke`` and the throughput benchmark.
"""

from __future__ import annotations

import asyncio
import tempfile
from pathlib import Path

from ..faults.schedule import FaultSchedule
from ..obs.snapshot import write_metrics
from ..core.task import Instance
from .driver import DriveReport, drive
from .frontend import ServeConfig, build_service

__all__ = ["run_loopback", "run_loopback_sync"]


async def run_loopback(
    instance: Instance,
    config: ServeConfig,
    time_scale: float | None = None,
    target_rate: float | None = None,
    faults: FaultSchedule | None = None,
    metrics_path: str | Path | None = None,
) -> DriveReport:
    """Serve ``instance`` over an in-process unix-socket loopback and
    return the drive report.

    ``time_scale`` defaults to the service's own scale; a final
    canonical metrics snapshot is written to ``metrics_path`` if given.
    """
    scale = config.time_scale if time_scale is None else time_scale
    service = build_service(config)
    await service.start()
    fault_task = None
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        socket_path = str(Path(tmp) / "serve.sock")

        async def on_connection(reader, writer):
            await service.handle_connection(reader, writer)

        server = await asyncio.start_unix_server(on_connection, path=socket_path)
        try:
            if faults is not None and faults:
                fault_task = asyncio.get_running_loop().create_task(
                    service.apply_faults(faults)
                )
            async with server:
                report = await drive(
                    instance,
                    socket_path=socket_path,
                    time_scale=scale,
                    target_rate=target_rate,
                )
        finally:
            if fault_task is not None:
                fault_task.cancel()
                await asyncio.gather(fault_task, return_exceptions=True)
            await service.stop()
    if metrics_path is not None:
        write_metrics(service.registry(), metrics_path, meta={"source": "repro-serve-loopback"})
    return report


def run_loopback_sync(*args, **kwargs) -> DriveReport:
    """:func:`run_loopback` from synchronous code (own event loop)."""
    return asyncio.run(run_loopback(*args, **kwargs))
