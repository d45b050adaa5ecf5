"""Shard supervision: detect a dead shard process, restart it, replay
its journal, rejoin it to the fleet.

The multi-process loopback (:func:`repro.serve.loopback.run_loopback`
with ``shards=N``) runs one server process per shard, and the
supervisor is the one place those processes are started.  Without supervision a SIGKILL'd shard silently
takes every queued and in-flight task of its interval with it — the
infrastructure failure mode the paper's flow-time bounds never model
and ``repro.faults`` (machine failures *inside* the simulation) does
not cover.  :class:`ShardSupervisor` closes that hole:

* every shard process is started through the supervisor with its
  :class:`~repro.serve.frontend.ServeConfig` kwargs — crucially a
  ``journal_dir``, so the server journals every state transition
  (:mod:`repro.serve.journal`);
* :meth:`poll` detects death (the process' exitcode materialised);
  :meth:`restart` unlinks the stale socket, respawns the server with
  the *same* config — on boot it finds the journal, replays it, and
  re-enqueues every placed-but-uncompleted request — and waits for the
  socket to accept again;
* :meth:`watch` runs that loop as an asyncio task next to a drive,
  restarting any shard that dies mid-run (the restart's blocking waits
  run in a worker thread so the drive's event loop never stalls);
* :meth:`kill` is the chaos hook — SIGKILL, no warning, exactly what a
  kernel OOM or a pulled cable does.

Recovery time (death observed → socket accepting) and restart/death
counts are exported through a :class:`repro.obs.recorders.
MetricsRegistry`; a router-fronted deployment pairs these hooks with
the ``detach-shard`` / ``reattach-shard`` ops of ``repro serve
--shards N`` (:meth:`ShardRouter.detach_shard` / ``reattach_shard``)
for graceful degradation while the shard is down.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import socket
import time
from pathlib import Path
from typing import Any, Callable

from ..obs.recorders import MetricsRegistry

__all__ = ["ShardSupervisor"]


def _shard_server_main(config_kwargs: dict, socket_path: str) -> None:
    """Entry point of one shard server process (spawn-safe)."""
    from .frontend import ServeConfig, serve

    asyncio.run(serve(ServeConfig(**config_kwargs), socket_path=socket_path))


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


class ShardSupervisor:
    """Start, watch, kill and restart per-shard server processes.

    Parameters
    ----------
    metrics:
        Registry for supervision counters (one is created if omitted):
        ``supervisor_starts_total``, ``supervisor_deaths_total``,
        ``supervisor_restarts_total``, the ``supervisor_recovery_seconds``
        histogram and the ``supervisor_shards_up`` gauge.
    restart_limit:
        Give up on a shard after this many restarts (a crash-looping
        shard must surface as an error, not an infinite loop).
    socket_timeout:
        Seconds to wait for a (re)started server to accept.
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        restart_limit: int = 5,
        socket_timeout: float = 30.0,
    ) -> None:
        if restart_limit < 0:
            raise ValueError(f"restart_limit must be >= 0, got {restart_limit}")
        self.registry = metrics if metrics is not None else MetricsRegistry()
        self.restart_limit = restart_limit
        self.socket_timeout = socket_timeout
        self._ctx = multiprocessing.get_context("spawn")
        self._configs: dict[int, dict[str, Any]] = {}
        self._sockets: dict[int, str] = {}
        self._procs: dict[int, multiprocessing.process.BaseProcess] = {}
        self.restarts: dict[int, int] = {}
        self.recovery_seconds: list[float] = []
        self._starts = self.registry.counter("supervisor_starts_total")
        self._deaths = self.registry.counter("supervisor_deaths_total")
        self._restarts = self.registry.counter("supervisor_restarts_total")
        self._recovery = self.registry.histogram(
            "supervisor_recovery_seconds",
            edges=(0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0),
        )
        self._up = self.registry.gauge("supervisor_shards_up")

    # -- membership ----------------------------------------------------------
    def add_shard(self, sid: int, config_kwargs: dict[str, Any], socket_path: str | Path) -> None:
        """Register shard ``sid``: the :class:`ServeConfig` kwargs its
        server boots from (include ``journal_dir`` for recoverability)
        and the unix socket it serves on."""
        if sid in self._configs:
            raise ValueError(f"shard {sid} already registered")
        self._configs[sid] = dict(config_kwargs)
        self._sockets[sid] = str(socket_path)
        self.restarts[sid] = 0

    @property
    def sids(self) -> list[int]:
        return sorted(self._configs)

    def socket_path(self, sid: int) -> str:
        return self._sockets[sid]

    def alive(self, sid: int) -> bool:
        proc = self._procs.get(sid)
        return proc is not None and proc.is_alive()

    # -- lifecycle -----------------------------------------------------------
    def _spawn(self, sid: int) -> None:
        path = self._sockets[sid]
        if Path(path).exists():
            # A stale socket from the previous incarnation would make
            # the restarted server die with AddressInUseError.
            os.unlink(path)
        proc = self._ctx.Process(
            target=_shard_server_main,
            args=(self._configs[sid], path),
            name=f"repro-shard-{sid}",
            daemon=True,
        )
        proc.start()
        self._procs[sid] = proc
        self._starts.inc()

    def start(self, sid: int) -> None:
        """Start shard ``sid`` and wait for its socket to accept."""
        if self.alive(sid):
            raise RuntimeError(f"shard {sid} already running")
        self._spawn(sid)
        _wait_for_socket(self._sockets[sid], timeout=self.socket_timeout)
        self._up.set(sum(1 for s in self.sids if self.alive(s)))

    def start_all(self) -> None:
        """Start every registered shard (spawn first, then wait — the
        boots overlap instead of serialising)."""
        for sid in self.sids:
            self._spawn(sid)
        for sid in self.sids:
            _wait_for_socket(self._sockets[sid], timeout=self.socket_timeout)
        self._up.set(len(self.sids))

    def kill(self, sid: int) -> int:
        """SIGKILL shard ``sid``'s process (the chaos hook — uncatchable,
        mid-write, exactly like an OOM kill); returns the dead pid."""
        proc = self._procs.get(sid)
        if proc is None or proc.pid is None:
            raise RuntimeError(f"shard {sid} has no running process")
        pid = proc.pid
        os.kill(pid, signal.SIGKILL)
        proc.join(timeout=self.socket_timeout)
        return pid

    def stop_all(self, timeout: float = 5.0) -> None:
        """Terminate every shard process still alive."""
        for proc in self._procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs.values():
            proc.join(timeout=timeout)
        self._up.set(0)

    # -- supervision ---------------------------------------------------------
    def poll(self) -> list[int]:
        """Shards whose process has died since the last poll."""
        dead = []
        for sid, proc in self._procs.items():
            if proc.exitcode is not None:
                dead.append(sid)
        return dead

    def restart(self, sid: int) -> float:
        """Restart a dead shard and return the recovery time in seconds
        (death observed → socket accepting; journal replay happens in
        the restarted server's boot, so it is *inside* the measured
        window).  Raises :class:`RuntimeError` past ``restart_limit``."""
        proc = self._procs.get(sid)
        if proc is not None and proc.is_alive():
            raise RuntimeError(f"shard {sid} is still alive")
        if self.restarts[sid] >= self.restart_limit:
            raise RuntimeError(
                f"shard {sid} crash-looping: {self.restarts[sid]} restarts "
                f"(limit {self.restart_limit})"
            )
        self._deaths.inc()
        t0 = time.monotonic()
        self._spawn(sid)
        _wait_for_socket(self._sockets[sid], timeout=self.socket_timeout)
        elapsed = time.monotonic() - t0
        self.restarts[sid] += 1
        self.recovery_seconds.append(elapsed)
        self._restarts.inc()
        self._recovery.observe(elapsed)
        self._up.set(sum(1 for s in self.sids if self.alive(s)))
        return elapsed

    async def watch(
        self,
        interval: float = 0.05,
        on_death: Callable[[int], None] | None = None,
        on_recover: Callable[[int, float], None] | None = None,
    ) -> None:
        """Supervision loop: poll for dead shards and restart them.

        Run as an asyncio task next to a drive; cancel it to stop.  The
        blocking restart (process spawn + socket wait) runs in a worker
        thread so the caller's event loop keeps serving.  ``on_death``
        fires when a death is observed (e.g. ``router.detach_shard``),
        ``on_recover`` after the socket accepts again (e.g.
        ``router.reattach_shard``).
        """
        while True:
            for sid in self.poll():
                if on_death is not None:
                    on_death(sid)
                elapsed = await asyncio.to_thread(self.restart, sid)
                if on_recover is not None:
                    on_recover(sid, elapsed)
            await asyncio.sleep(interval)

    def stats(self) -> dict[str, Any]:
        return {
            "shards": self.sids,
            "up": [sid for sid in self.sids if self.alive(sid)],
            "restarts": dict(self.restarts),
            "recovery_seconds": list(self.recovery_seconds),
        }
