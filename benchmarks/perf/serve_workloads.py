"""The serve workloads: the real ``repro serve`` verb over a unix socket.

The worker process is the client.  It starts the server as
``python -m repro serve --m 8 --time-scale 1e-6`` (eft-min, no
admission), pinned to its own CPU, and talks to it through the wire
protocol.  The request stream is
``build_drive_instance(source="spec", m=8, k=2, proc=0.004, rate=1800,
seed)``; every frame is encoded during set-up.

A repeat is two short segments on one connection:

* closed loop: 32 requests outstanding, each ack releases the next
  submit; gives ``ops_per_s`` (acks/s) and ``latency_p50_ms`` (the
  median submit → ack latency).  It is timed between two host speed
  probes run on the server's CPU while the server is idle (the server
  does the work; see :mod:`hostspeed`);
* open loop: a fixed request rate, each request timed from the
  instant it was *due*, so a stall also charges the requests queued
  behind it; gives the ``client.open_*`` diagnostics and the
  generator's lateness.  Its requests arrive one at a time at an idle
  server, so their latency includes the idle server CPU's wake-up,
  which depends on the host's load and not on the program; it is not
  gated.

``serve-saturated`` runs without a journal.  ``serve-journaled`` adds
``--journal DIR --journal-fsync batch``: a write-ahead append beside
every submit, fsync'd every 64 records.  With an fsync per submit the
workload would time the shared disk's fsync latency, which drifts with
other tenants' I/O and not with the program.  After the repeats it
drains, SIGKILLs the server and restarts it on the same journal, timing
restart → first ``ping``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import hostspeed
from repro.campaigns.trace import make_scheduler
from repro.serve.dispatcher import Dispatcher
from repro.serve.driver import build_drive_instance, percentile
from repro.serve.protocol import encode_frame, task_to_wire, versioned
from spans import load_spans, sum_by_name

M, K_SETS, PROC, RATE, TIME_SCALE = 8, 2, 0.004, 1800.0, "1e-6"
JOURNAL_FSYNC = "batch"
#: requests outstanding in the closed loop
OUTSTANDING = 32
#: per repeat: ``closed`` closed-loop then ``open`` open-loop requests
#: at ``rate`` req/s.  ``repeat_s`` is a repeat's nominal share of the
#: pass, including (journaled) its share of the restarts' replay: a
#: pass does ``--seconds / repeat_s`` repeats, half as many in each pass
#: of a traced run (never fewer than ``--repeats``).  The count depends
#: on the arguments only, so the server's memory and the journal a
#: restart replays have a fixed size.
WORKLOADS: dict[str, dict[str, Any]] = {
    "serve-saturated": {"journal": False, "closed": 1_000, "open": 500, "rate": 5000.0, "repeat_s": 0.25},
    "serve-journaled": {"journal": True, "closed": 500, "open": 300, "rate": 2000.0, "repeat_s": 0.4},
}
SETUPS = 5
RESTARTS = 3
READY_TIMEOUT = 60.0

clock = time.perf_counter


class Conn:
    """A blocking client connection that splits the byte stream into
    frame bodies (JSON is parsed after the timed phases)."""

    def __init__(self, path: str) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.buf = bytearray()

    def bodies(self) -> list[bytes]:
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("server closed the connection")
        buf = self.buf
        buf += data
        out, pos, end = [], 0, len(buf)
        while end - pos >= 4:
            size = int.from_bytes(buf[pos : pos + 4], "big")
            if end - pos - 4 < size:
                break
            out.append(bytes(buf[pos + 4 : pos + 4 + size]))
            pos += 4 + size
        del buf[:pos]
        return out

    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        self.sock.sendall(encode_frame(message))
        got: list[bytes] = []
        while not got:
            got = self.bodies()
        return json.loads(got[0])

    def close(self) -> None:
        self.sock.close()


def closed_loop(conn: Conn, frames: list[bytes], k: int) -> tuple[list[float], list[float], list[bytes]]:
    """``k`` requests outstanding; returns per-request latency (send →
    ack), ack times and the ack bodies."""
    n = len(frames)
    send_t = [0.0] * n
    ack_t = [0.0] * n
    bodies: list[bytes] = []
    t0 = clock()
    sent = min(k, n)
    for i in range(sent):
        send_t[i] = t0
    conn.sock.sendall(b"".join(frames[:sent]))
    done = 0
    while done < n:
        got = conn.bodies()
        now = clock()
        for _ in got:
            ack_t[done] = now
            done += 1
        bodies += got
        hi = min(done + k, n)
        if hi > sent:
            for i in range(sent, hi):
                send_t[i] = now
            conn.sock.sendall(b"".join(frames[sent:hi]))
            sent = hi
    return [a - s for a, s in zip(ack_t, send_t)], [t0] + ack_t, bodies


def open_loop(conn: Conn, frames: list[bytes], rate: float) -> tuple[list[float], list[float], list[bytes]]:
    """Send request ``i`` at ``t0 + i / rate`` whatever the acks do;
    returns latency from due time, send lateness and the ack bodies.

    The generator polls without sleeping, so its own wake-up latency
    stays out of the figures (it has a CPU of its own)."""
    n = len(frames)
    gap = 1.0 / rate
    lat: list[float] = []
    late: list[float] = []
    bodies: list[bytes] = []
    sock = conn.sock
    t0 = clock() + 1e-3
    sent = done = 0
    while done < n:
        now = clock()
        if sent < n and t0 + sent * gap <= now:
            hi = sent
            while hi < n and t0 + hi * gap <= now:
                late.append(now - (t0 + hi * gap))
                hi += 1
            sock.sendall(b"".join(frames[sent:hi]))
            sent = hi
        ready, _, _ = select.select([sock], [], [], 0)
        if ready:
            got = conn.bodies()
            now = clock()
            for _ in got:
                lat.append(now - (t0 + done * gap))
                done += 1
            bodies += got
    return lat, late, bodies


class Server:
    """One ``repro serve`` child process."""

    def __init__(self, ctx: dict[str, Any], tag: str, journal: Path | None, spans: Path | None) -> None:
        scratch: Path = ctx["scratch"]
        self.sock_path = os.path.relpath(scratch / f"{tag}.sock", ctx["root"])
        self.spans = spans
        argv = ["serve", "--socket", self.sock_path, "--m", str(M), "--time-scale", TIME_SCALE]
        if journal is not None:
            argv += ["--journal", os.path.relpath(journal, ctx["root"]), "--journal-fsync", JOURNAL_FSYNC]
        if spans is not None:
            cmd = [sys.executable, str(Path(__file__).with_name("launcher.py")), "--spans", str(spans), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "repro", *argv]
        self.stderr = open(scratch / f"{tag}.stderr", "ab")
        self.t_spawn = clock()
        self.proc = subprocess.Popen(
            cmd, cwd=ctx["root"], stdout=subprocess.DEVNULL, stderr=self.stderr
        )
        if ctx["server_cpu"] is not None:
            try:
                os.sched_setaffinity(self.proc.pid, {ctx["server_cpu"]})
            except OSError:
                pass
        self.rusage: Any = None

    def ready(self) -> tuple[Conn, float]:
        """Connect once the socket accepts and a ``ping`` is answered;
        returns the connection and the seconds since spawn."""
        deadline = self.t_spawn + READY_TIMEOUT
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode} before answering ping")
            try:
                conn = Conn(self.sock_path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if clock() > deadline:
                    raise RuntimeError("server did not accept connections in time")
                time.sleep(0.002)
        pong = conn.request({"op": "ping"})
        elapsed = clock() - self.t_spawn
        if pong.get("op") != "pong":
            raise RuntimeError(f"unexpected ping answer {pong!r}")
        return conn, elapsed

    def cpu_seconds(self) -> float:
        """CPU time of the server's threads so far, to the nanosecond
        (Linux ``/proc/<pid>/task/*/schedstat``; 0 elsewhere)."""
        total = 0
        try:
            for tid in os.listdir(f"/proc/{self.proc.pid}/task"):
                with open(f"/proc/{self.proc.pid}/task/{tid}/schedstat", encoding="ascii") as fh:
                    total += int(fh.read().split()[0])
        except OSError:
            return 0.0
        return total * 1e-9

    def dump_spans(self) -> None:
        """Ask a traced server for its spans and wait until written."""
        if self.spans is None:
            return
        self.spans.unlink(missing_ok=True)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = clock() + 60.0
        while not self.spans.exists() and clock() < deadline:
            time.sleep(0.01)

    def shutdown(self, conn: Conn) -> None:
        conn.request({"op": "shutdown"})
        conn.close()
        self.reap()

    def kill(self) -> None:
        self.proc.kill()
        self.reap()

    def reap(self, timeout: float = 30.0) -> None:
        """Wait for exit, keeping the child's resource usage (its peak
        RSS); kill it if it does not exit in time."""
        deadline = clock() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.rusage = usage
                break
            if clock() > deadline:
                self.proc.kill()
                deadline = clock() + timeout
            time.sleep(0.005)
        self.stderr.close()

    def ensure_stopped(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.reap()


def _wal_records(journal: Path) -> int:
    """Intact (newline-terminated) records in the write-ahead log."""
    wal = journal / "wal.jsonl"
    return wal.read_bytes().count(b"\n") if wal.exists() else 0


def _setup_times(ctx: dict[str, Any], journal: bool) -> list[float]:
    """Spawn an empty server → first ``ping`` answered, :data:`SETUPS`
    times, at the reference host speed."""
    out = []
    for i in range(SETUPS):
        jdir = ctx["scratch"] / f"setup-journal-{i}" if journal else None
        before = hostspeed.measure(ctx["server_cpu"])
        srv = Server(ctx, f"setup{i}", jdir, None)
        try:
            conn, elapsed = srv.ready()
            srv.shutdown(conn)
        finally:
            srv.ensure_stopped()
        out.append(hostspeed.scale(elapsed, before, hostspeed.measure(ctx["server_cpu"])))
    return out


def _serve_pass(ctx, cfg, frames, n_reps, sizes, traced: bool, tag: str) -> dict[str, Any]:
    """Start a server, run the warm-up repeat plus ``n_reps`` measured
    repeats, drain, read stats; for the journaled workload then kill
    and restart on the journal :data:`RESTARTS` times."""
    scratch: Path = ctx["scratch"]
    cpu = ctx["server_cpu"]
    journal = scratch / f"{tag}-journal" if cfg["journal"] else None
    spans_path = scratch / f"{tag}.spans.jsonl" if traced else None
    srv = Server(ctx, tag, journal, spans_path)
    out: dict[str, Any] = {"reps": [], "bodies": [], "restarts": [], "span_files": []}
    lat_c_all: list[float] = []
    lat_o_all: list[float] = []
    late_all: list[float] = []
    busy = {"client": 0.0, "server": 0.0, "wall": 0.0}
    try:
        conn, _ = srv.ready()
        n_closed, n_open = sizes
        per = n_closed + n_open
        p0 = hostspeed.measure(cpu)
        for r in range(n_reps + 1):
            seg = frames[r * per : (r + 1) * per]
            gc.collect()
            c0, s0 = time.process_time(), srv.cpu_seconds()
            lat_c, marks, bodies_c = closed_loop(conn, seg[:n_closed], OUTSTANDING)
            c1, s1 = time.process_time(), srv.cpu_seconds()
            p1 = hostspeed.measure(cpu)
            lat_o, late, bodies_o = open_loop(conn, seg[n_closed:], cfg["rate"])
            p2 = hostspeed.measure(cpu)
            out["bodies"] += bodies_c + bodies_o
            if r > 0:  # the first repeat warms the server and client up
                closed_s = marks[-1] - marks[0]
                out["reps"].append(
                    {
                        "ops_per_s": n_closed / hostspeed.scale(closed_s, p0, p1),
                        "latency_p50_ms": hostspeed.scale(statistics.median(lat_c), p0, p1) * 1e3,
                        "probe": (p0 + p1) / 2,
                    }
                )
                lat_c_all += lat_c
                lat_o_all += lat_o
                late_all += late
                busy["client"] += c1 - c0
                busy["server"] += s1 - s0
                busy["wall"] += closed_s
            p0 = p2
        out["drain"] = conn.request({"op": "drain"})
        out["stats"] = conn.request({"op": "stats"})["stats"]
        if journal is None:
            srv.shutdown(conn)  # a traced server writes its spans as it exits
        else:
            conn.close()
            srv.dump_spans()
            srv.kill()
        out["rusage"] = srv.rusage
        if spans_path is not None:
            out["span_files"].append(spans_path)
        for i in range(RESTARTS if journal is not None else 0):
            records = _wal_records(journal)
            rspans = scratch / f"{tag}-restart{i}.spans.jsonl" if traced else None
            again = Server(ctx, f"{tag}-restart{i}", journal, rspans)
            try:
                conn2, elapsed = again.ready()
                stats = conn2.request({"op": "stats"})["stats"]
                conn2.close()
                again.dump_spans()
                again.kill()
            finally:
                again.ensure_stopped()
            if rspans is not None:
                out["span_files"].append(rspans)
            out["restarts"].append({"seconds": elapsed, "records": records, "stats": stats})
    finally:
        srv.ensure_stopped()
    # Pooled over the pass, as measured (diagnostics, not scaled).
    out["client"] = {
        "ack_p99_ms": percentile(lat_c_all, 0.99) * 1e3,
        "ack_p999_ms": percentile(lat_c_all, 0.999) * 1e3,
        "open_p50_ms": statistics.median(lat_o_all) * 1e3,
        "open_p99_ms": percentile(lat_o_all, 0.99) * 1e3,
        "late_p99_ms": percentile(late_all, 0.99) * 1e3,
        "client_cpu": busy["client"] / busy["wall"],
        "server_cpu": busy["server"] / busy["wall"],
    }
    return out


def _acks(bodies: list[bytes]) -> list[dict[str, Any]]:
    acks = []
    for body in bodies:
        try:
            acks.append(json.loads(body))
        except ValueError:
            acks.append({"ok": False})
    return acks


def _ack_failures(acks: list[dict[str, Any]], tids: list[int]) -> int:
    """Acks that are not an ok dispatch of the expected task."""
    bad = abs(len(acks) - len(tids))
    for ack, tid in zip(acks, tids):
        if not (ack.get("ok") and ack.get("status") == "dispatched" and ack.get("tid") == tid):
            bad += 1
    return bad


def _digest(rows) -> str:
    h = hashlib.sha256()
    for tid, status, machine, start in rows:
        h.update(f"{tid}:{status}:{machine}:{start!r};".encode())
    return h.hexdigest()


def _shadow_digest(tasks) -> str:
    """The same stream through an in-process ``Dispatcher`` in virtual
    time (the serve ≡ simulator oracle)."""
    d = Dispatcher(make_scheduler("eft-min", M, seed=0))
    return _digest((t.tid, dec.status, dec.machine, dec.start) for t in tasks for dec in [d.submit(t)])


def _request_layers(spans: list) -> dict[str, float]:
    """Per-layer metrics of the traced server's request traffic.

    ``frontend.residual_us`` is, per submit, the server wall from the
    start of its frame decode to the end of its ack encode minus the
    wrapped layers inside that window: no ``await`` separates the two,
    so what remains is the frontend's own Python."""
    sums = sum_by_name(spans)
    by_req: dict[Any, list] = {}
    for span in spans:
        if span[4] is not None and span[0] != "journal.commit":  # commit nests in append
            by_req.setdefault(span[4], []).append(span)
    residual, windows = 0.0, 0
    for group in by_req.values():
        dec = [s for s in group if s[0] == "protocol.decode"]
        enc = [s for s in group if s[0] == "protocol.encode"]
        if not dec or not enc:
            continue
        lo, hi = dec[0][1], enc[0][2]
        inner = sum(s[2] - s[1] for s in group if lo <= s[1] and s[2] <= hi)
        residual += (hi - lo) - inner
        windows += 1

    def calls(name: str) -> int:
        return sums.get(name, (0, 0.0))[0]

    def per_call_us(name: str) -> float:
        n, total = sums.get(name, (0, 0.0))
        return total / n * 1e6 if n else 0.0

    return {
        "protocol.decode_us": per_call_us("protocol.decode"),
        "protocol.decode_calls": calls("protocol.decode"),
        "protocol.encode_us": per_call_us("protocol.encode"),
        "protocol.encode_calls": calls("protocol.encode"),
        "dispatcher.submit_us": per_call_us("dispatcher.submit"),
        "dispatcher.submit_calls": calls("dispatcher.submit"),
        "journal.append_us": per_call_us("journal.append"),
        "journal.commit_us": per_call_us("journal.commit"),
        "journal.records": calls("journal.append"),
        "frontend.residual_us": residual / windows * 1e6 if windows else 0.0,
    }


def run(name: str, seed: int, seconds: float, repeats: int, trace: bool, quick: bool,
        ctx: dict[str, Any]) -> dict[str, Any]:
    """Worker-process body of a serve workload."""
    cfg = WORKLOADS[name]
    scale = 10 if quick else 1
    sizes = (cfg["closed"] // scale, cfg["open"] // scale)
    budget = seconds / 2 if trace else seconds  # a traced run measures two passes
    n_reps = repeats if quick else max(repeats, round(budget / cfg["repeat_s"]))
    n_total = (n_reps + 1) * sum(sizes)
    instance = build_drive_instance(
        source="spec", m=M, n=n_total, rate=RATE, k=K_SETS, proc=PROC, seed=seed
    )
    frames = [encode_frame(versioned({"op": "submit", **task_to_wire(t)})) for t in instance]
    tids = [t.tid for t in instance]
    # The inputs live for the whole run: keep them out of the client's
    # per-repeat collections (the server's heap is untouched).
    gc.freeze()
    setups = _setup_times(ctx, cfg["journal"])

    passes = {"untraced": _serve_pass(ctx, cfg, frames, n_reps, sizes, False, "main")}
    if trace:
        passes["traced"] = _serve_pass(ctx, cfg, frames, n_reps, sizes, True, "traced")

    attempted = failed = 0
    checks: dict[str, bool] = {}
    shadow = _shadow_digest(instance.tasks)
    flows: set[float] = set()
    for label, p in passes.items():
        acks = _acks(p["bodies"])
        bad = _ack_failures(acks, tids)
        attempted += len(tids)
        failed += bad
        stats = p["stats"]
        digest = _digest((a.get("tid"), a.get("status"), a.get("machine"), a.get("start")) for a in acks)
        flows.add(max((a.get("est_flow") or 0.0) for a in acks))
        checks[f"{label}.acks_ok"] = bad == 0
        checks[f"{label}.digest_equals_shadow_dispatcher"] = digest == shadow
        checks[f"{label}.completed==dispatched_after_drain"] = (
            stats["completed"] == stats["dispatched"] == len(tids)
            and p["drain"].get("completed") == len(tids)
        )
        checks[f"{label}.no_shed_or_parked"] = stats["shed"] == 0 and stats["parked"] == 0
        for i, rs in enumerate(p["restarts"]):
            rec = rs["stats"].get("recovered", {})
            checks[f"{label}.restart{i}.replayed==journal_records"] = rec.get("replayed") == rs["records"]
            checks[f"{label}.restart{i}.dispatched_recovered"] = rs["stats"]["dispatched"] == len(tids)

    base = passes["untraced"]
    reps = base["reps"]
    e2e = {
        "setup_s": setups,
        "ops_per_s": [r["ops_per_s"] for r in reps],
        "latency_p50_ms": [r["latency_p50_ms"] for r in reps],
    }
    rss_mb = base["rusage"].ru_maxrss / 1024.0 if base.get("rusage") is not None else 0.0
    client = base["client"]
    layers: dict[str, float] = {
        "host.probe_ms": statistics.median(r["probe"] for r in reps) * 1e3,
        "decision.flow_max": max(flows),
        "client.cpu_share": client["client_cpu"],
        "server.cpu_share": client["server_cpu"],
        "client.late_p99_ms": client["late_p99_ms"],
        "client.ack_p99_ms": client["ack_p99_ms"],
        "client.ack_p999_ms": client["ack_p999_ms"],
        "client.open_p50_ms": client["open_p50_ms"],
        "client.open_p99_ms": client["open_p99_ms"],
    }
    if base["restarts"]:
        layers["serve.recovery_s"] = statistics.median(r["seconds"] for r in base["restarts"])
        layers["journal.replayed"] = base["restarts"][0]["stats"].get("recovered", {}).get("replayed", 0)
    unavailable: set[str] = set()
    if trace:
        traced = passes["traced"]
        main_file, *restart_files = traced["span_files"]
        spans, missing = load_spans(main_file)
        unavailable.update(missing)
        layers.update(_request_layers(spans))
        recover = []
        for path in restart_files:
            spans, missing = load_spans(path)
            unavailable.update(missing)
            recover += [s[2] - s[1] for s in spans if s[0] == "journal.recover"]
        if recover:
            layers["journal.recover_s"] = statistics.median(recover)
        layers["trace.overhead_share"] = statistics.median(e2e["ops_per_s"]) / statistics.median(
            r["ops_per_s"] for r in traced["reps"]
        ) - 1.0
    return {
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "e2e": e2e,
        "layers": layers,
        "unavailable": sorted(unavailable),
        "repeats": len(reps),
        "peak_rss_mb": rss_mb,
        "digests": {"acks": shadow},
        "info": {"n": n_total, "m": M, "closed": sizes[0], "open": sizes[1], "rate": cfg["rate"]},
    }
