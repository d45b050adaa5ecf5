"""One outside-in benchmark for the simulator and the serve tier.

Run from the repository root::

    python3 benchmarks/perf/run.py --workload sim-array-100k --seed 0 --trace 0
    python3 benchmarks/perf/run.py --workload all --json out.json    # records kept
    python3 benchmarks/perf/run.py --workload all --trace 1          # per-layer split
    python3 benchmarks/perf/run.py --quick                           # n/10, 2 repeats
    python3 benchmarks/perf/run.py --compare base.json new.json

Each workload runs in a fresh worker process (pinned to one CPU; a
server, if any, is pinned to another).  With ``--trace 0`` the result
holds every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1``
every per-layer metric, measured by a traced pass beside an untraced
one that share the run's ``--seconds`` (their difference is
``trace.overhead_share``).  End-to-end timings are reported at a
reference host speed (see ``hostspeed.py``).  Every output is
checked; a failed check makes the run exit 1.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).

Scratch files (sockets, journals, spans) live in ``.perf_tmp/`` under
the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from record import (  # noqa: E402
    compare_records,
    git_commit,
    host_info,
    render_comparison,
    summary,
)

SIM_WORKLOADS = ("sim-array-100k", "sim-zoo-faulted")
SERVE_WORKLOADS = ("serve-saturated", "serve-journaled")
WORKLOADS = SIM_WORKLOADS + SERVE_WORKLOADS
#: a worker's time limit is this allowance for set-ups, warm-ups, oracles
#: and restarts plus twice its ``--seconds``
WORKER_SETUP_S = 100.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time of a run (default: run_seconds of BENCHMARK.json); "
                        "sim: at least; serve: scales the repeat count")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1),
                   help="1: report the per-layer metrics from a traced pass")
    p.add_argument("--repeats", type=int, default=5, help="minimum measured repeats")
    p.add_argument("--quick", action="store_true", help="n/10 and 2 repeats (a smoke run)")
    p.add_argument("--json", metavar="OUT", help="write one record per workload to OUT")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                   help="compare two --json records and exit")
    p.add_argument("--worker", help=argparse.SUPPRESS)
    p.add_argument("--setup-probe", help=argparse.SUPPRESS)
    p.add_argument("--scratch", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.quick:
        args.repeats, args.seconds = 2, 0.0
    if args.repeats < 1:
        p.error("--repeats must be >= 1")
    return args


def load_bench() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


# -- worker process ------------------------------------------------------------


def worker(args: argparse.Namespace) -> int:
    """Run one workload in this (fresh) process and write its raw
    result as JSON to ``<scratch>/result.json``."""
    sys.path.insert(0, str(SRC))
    scratch = Path(args.scratch)
    avail = cpus()
    if len(avail) >= 2:
        os.sched_setaffinity(0, {avail[0]})
    name = args.worker
    if name in SIM_WORKLOADS:
        import sim_workloads

        out = sim_workloads.run(name, args.seed, args.seconds, args.repeats, bool(args.trace), args.quick)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        import serve_workloads

        ctx = {"root": ROOT, "scratch": scratch, "server_cpu": avail[1] if len(avail) >= 2 else None}
        out = serve_workloads.run(
            name, args.seed, args.seconds, args.repeats, bool(args.trace), args.quick, ctx
        )
    (scratch / "result.json").write_text(json.dumps(out))
    return 0


def run_worker(name: str, args: argparse.Namespace, tmp: Path) -> dict[str, Any]:
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp))
    cmd = [
        sys.executable, str(Path(__file__)), "--worker", name, "--scratch", str(scratch),
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--repeats", str(args.repeats),
    ]
    if args.quick:
        cmd.append("--quick")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    timeout = WORKER_SETUP_S + 2 * args.seconds
    # Its own process group, so a timeout also stops the servers it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except BaseException as exc:  # a timeout or an interrupt: stop the whole group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError(f"{name}: worker exceeded {timeout:.0f} s") from exc
        raise
    if code != 0:
        raise RuntimeError(f"{name}: worker exited with code {code}")
    return json.loads((scratch / "result.json").read_text())


# -- reporting -----------------------------------------------------------------


def build_record(name: str, raw: dict[str, Any], args, bench, host, commit) -> dict[str, Any]:
    metrics, stages = {}, {}
    if args.trace:
        for spec in bench["per_layer"]:
            value = float(raw["layers"].get(spec["name"], 0.0))
            stages[spec["name"]] = {"value": value, "unit": spec["unit"]}
    else:
        samples = dict(raw["e2e"], peak_rss_mb=[raw["peak_rss_mb"]])
        for spec in bench["end_to_end"]:
            metrics[spec["name"]] = dict(summary(samples[spec["name"]]), unit=spec["unit"])
    failed_checks = sorted(k for k, ok in raw["checks"].items() if not ok)
    attempted = raw["attempted"] + len(raw["checks"])
    failed = raw["failed"] + len(failed_checks)
    return {
        "workload": name,
        "commit": commit,
        "host": host,
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": raw["repeats"],
        "quick": args.quick,
        "trace": args.trace,
        "metrics": metrics,
        "stages": stages,
        "checks": raw["checks"],
        "failed_checks": failed_checks,
        "unavailable": raw.get("unavailable", []),
        "digests": raw.get("digests", {}),
        "info": raw.get("info", {}),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
    }


def render(rec: dict[str, Any]) -> str:
    lines = [
        f"== {rec['workload']}  seed={rec['seed']} repeats={rec['repeats']} "
        f"commit={rec['commit'][:12]} host={rec['host']['cpu_model']} x{rec['host']['nproc']} "
        f"fs={rec['host']['scratch_fs']}"
    ]
    for name, m in rec["metrics"].items():
        lines.append(
            f"  {name:<16} {m['median']:>14.6g} {m['unit']:<6} "
            f"(min {m['min']:.6g}, IQR {m['iqr']:.4g}, n={m['n']})"
        )
    idle = [name for name, s in rec["stages"].items() if s["value"] == 0]
    for name, s in rec["stages"].items():
        if s["value"] != 0:
            lines.append(f"  {name:<36} {s['value']:>14.6g} {s['unit']}")
    if idle:
        lines.append(f"  ({len(idle)} layer metrics read 0: not exercised by this workload)")
    for name in rec["unavailable"]:
        lines.append(f"  {name:<36} unavailable (wrap target missing)")
    checks = rec["checks"]
    lines.append(
        f"  checks: {len(checks) - len(rec['failed_checks'])}/{len(checks)} passed"
        + (f"; FAILED: {', '.join(rec['failed_checks'])}" if rec["failed_checks"] else "")
    )
    lines.append(f"  attempted {rec['attempted']}  failed {rec['failed']}")
    return "\n".join(lines)


def result_line(rec: dict[str, Any]) -> str:
    if rec["trace"]:
        metrics = rec["stages"]
    else:
        metrics = {k: {"value": m["median"], "unit": m["unit"]} for k, m in rec["metrics"].items()}
    return json.dumps(
        {"correct": rec["correct"], "attempted": rec["attempted"], "failed": rec["failed"],
         "metrics": metrics}
    )


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.worker:
        return worker(args)
    if args.setup_probe:
        sys.path.insert(0, str(SRC))
        import sim_workloads

        sim_workloads.probe(args.setup_probe, args.seed, args.quick)
        return 0
    try:
        bench = load_bench()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.compare:
        base, new = (json.loads(Path(p).read_text()) for p in args.compare)
        print(render_comparison(compare_records(base, new, bench)))
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    tmp_root = ROOT / ".perf_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    host = host_info(tmp)
    commit = git_commit(ROOT)
    ok = True
    records = {}
    try:
        for name in names:
            try:
                raw = run_worker(name, args, tmp)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            rec = build_record(name, raw, args, bench, host, commit)
            ok = ok and rec["correct"]
            print(render(rec))
            records[name] = rec
            if args.json:
                Path(args.json).write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
            print(result_line(rec), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
