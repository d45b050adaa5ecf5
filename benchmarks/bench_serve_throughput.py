"""Serving-layer ablation — sustained loopback throughput vs offered load.

Runs the full serving stack (frontend, protocol, dispatcher, workers)
over an in-process unix-socket loopback at 70%, 90% and 100% offered
load and reports the achieved request rate, tail flow and shed
fraction per point.  Every run must uphold the no-drops invariant:
each submitted request is acknowledged, and none is lost to a bug.

The sharded variant drives the same disjoint workload against 1 and 4
dispatcher shards (one server process per shard, client-side plan
routing) and must show higher fleet throughput at 4 shards while
keeping the assignment digest byte-identical — Theorem 6's composition
means sharding buys capacity without changing a single decision.  Its
throughput ratio is only meaningful with a spare core per shard: on a
host with fewer cores than shards, multi-process scaling measures the
OS scheduler.  The serve workloads of ``benchmarks/perf`` are the
capacity numbers.

Both benchmarks append their rows to ``BENCH_serve.json`` at the repo
root (machine-readable mirror of the printed tables).
"""

import json
import math
import os
from pathlib import Path

import pytest

from repro.serve import (
    ServeConfig,
    build_drive_instance,
    percentile,
    plan_for_instance,
    run_loopback,
)

M = 4
PROC = 0.004  # virtual units == wall seconds at time_scale=1

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_serve.json"


def _p99(flows):
    return percentile(flows, 0.99) if flows else math.nan


def _write_bench_json(section: str, payload: dict) -> None:
    """Merge ``payload`` under ``section`` into BENCH_serve.json."""
    data = {}
    if BENCH_JSON.is_file():
        try:
            data = json.loads(BENCH_JSON.read_text())
        except json.JSONDecodeError:
            data = {}
    data[section] = payload
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _point(load: float, n: int):
    """One loopback run at the given offered load (load = rate*proc/m)."""
    rate = load * M / PROC
    instance = build_drive_instance(
        source="spec", m=M, n=n, rate=rate, k=2, proc=PROC, seed=2026
    )
    config = ServeConfig(m=M, scheduler="eft-min")
    report = run_loopback(instance, config, target_rate=rate).report
    return rate, report


@pytest.mark.ablation
def test_serve_throughput_under_load(run_once, scale):
    n = 1200 if scale == "full" else 300
    loads = [0.7, 0.9, 1.0]

    def sweep():
        return [(load,) + _point(load, n) for load in loads]

    rows = run_once(sweep)
    print()
    print(f"loopback serving throughput (m={M}, proc={PROC:g}, n={n} per point)")
    print(f"{'load':>6} {'target rps':>12} {'achieved rps':>13} "
          f"{'p99 est flow':>13} {'shed %':>8}")
    points = []
    for load, rate, report in rows:
        shed_pct = 100.0 * report.n_shed / report.n_sent if report.n_sent else 0.0
        print(
            f"{load:>6.0%} {rate:>12.0f} {report.achieved_rate:>13.1f} "
            f"{_p99(report.est_flows):>13.6g} {shed_pct:>8.2f}"
        )
        points.append(
            {
                "load": load,
                "target_rps": rate,
                "achieved_rps": report.achieved_rate,
                "p99_est_flow": _p99(report.est_flows),
                "shed_pct": shed_pct,
            }
        )
    _write_bench_json(
        "loopback_throughput",
        {"m": M, "proc": PROC, "n": n, "scale": scale, "points": points},
    )
    for load, rate, report in rows:
        assert report.n_errors == 0, f"load {load:.0%}: requests dropped by a bug"
        assert report.n_acked == report.n_sent == n
        assert report.server_stats["completed"] == report.n_dispatched
    # Higher offered load must not lower the achieved request rate
    # much: the driver is open-loop, so pacing tracks the target.
    achieved = [report.achieved_rate for _, _, report in rows]
    assert achieved == sorted(achieved), "achieved rate should grow with offered load"


SHARD_M, SHARD_K = 8, 2
SHARD_COUNTS = [1, 4]


@pytest.mark.ablation
@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) <= SHARD_COUNTS[-1],
    reason=f"needs a core per shard plus one for the client ({SHARD_COUNTS[-1] + 1}); "
    "with fewer, the shard-scaling ratio measures the OS scheduler",
)
def test_sharded_serve_scales_throughput(run_once, scale):
    n = 2000 if scale == "full" else 600
    rate = 50_000.0  # far beyond one frontend's capacity: measure the ceiling
    instance = build_drive_instance(
        source="spec",
        m=SHARD_M,
        n=n,
        rate=rate,
        k=SHARD_K,
        strategy="disjoint",
        proc=PROC,
        seed=2026,
    )

    def sweep():
        out = []
        for shards in SHARD_COUNTS:
            plan = plan_for_instance(instance, shards)
            result = run_loopback(
                instance, ServeConfig(m=SHARD_M), shards=shards, plan=plan, target_rate=rate
            )
            out.append((shards, result.report))
        return out

    rows = run_once(sweep)
    print()
    print(
        f"sharded serving throughput (m={SHARD_M}, k={SHARD_K} disjoint, "
        f"proc={PROC:g}, n={n}, offered {rate:.0f} rps)"
    )
    print(f"{'shards':>7} {'achieved rps':>13} {'p99 est flow':>13} {'digest':>18}")
    points = []
    for shards, report in rows:
        print(
            f"{shards:>7} {report.achieved_rate:>13.1f} "
            f"{_p99(report.est_flows):>13.6g} {report.assignments_digest[:16]:>18}"
        )
        points.append(
            {
                "shards": shards,
                "achieved_rps": report.achieved_rate,
                "p99_est_flow": _p99(report.est_flows),
                "assignments_sha256": report.assignments_digest,
            }
        )
    by_shards = dict(rows)
    single, fleet = by_shards[SHARD_COUNTS[0]], by_shards[SHARD_COUNTS[-1]]
    speedup = fleet.achieved_rate / single.achieved_rate if single.achieved_rate else math.nan
    print(f"speedup at {SHARD_COUNTS[-1]} shards: {speedup:.2f}x")
    _write_bench_json(
        "sharded_throughput",
        {
            "m": SHARD_M,
            "k": SHARD_K,
            "n": n,
            "scale": scale,
            "target_rps": rate,
            "points": points,
            "speedup": speedup,
        },
    )
    for shards, report in rows:
        assert report.n_errors == 0, f"{shards} shards: requests dropped by a bug"
        assert report.n_acked == report.n_sent == n
    # Theorem 6: a disjoint plan shards the stream without changing one
    # decision — the digest is the proof, the throughput is the payoff.
    digests = {report.assignments_digest for _, report in rows}
    assert len(digests) == 1, "sharding changed placements on a disjoint plan"
    assert fleet.achieved_rate > single.achieved_rate, (
        f"expected >1x scaling from {SHARD_COUNTS[-1]} shards, got {speedup:.2f}x"
    )
