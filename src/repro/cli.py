"""Command-line interface: regenerate any paper table or figure.

Usage::

    python -m repro table1
    python -m repro table2 --m 16 --k 3 --p 1000
    python -m repro fig03 --m 6 --k 3
    python -m repro fig08
    python -m repro fig10 --quick -j 4
    python -m repro fig11 --quick -j 4
    python -m repro campaign fig11 --quick -j 4 --out results/campaigns
    python -m repro campaign fig11 --quick -j 4 --metrics results/fig11.metrics.json
    python -m repro campaign fig11 --quick -j 4 --timeout 120 --retries 2 --out results/campaigns
    python -m repro campaign fig11 --quick -j 4 --out results/campaigns --resume
    python -m repro faulted --m 8 --k 2 --mtbf 60 --mttr 5 --policy restart
    python -m repro replay results/campaigns/fig11/eft-min.trace.jsonl
    python -m repro replay --golden eft-min-m4 --scheduler eft-max
    python -m repro rebalance --m 12 --n 4000 --policy compare
    python -m repro rebalance --policy adaptive --events results/rebalance.trace.jsonl
    python -m repro replay results/rebalance.trace.jsonl
    python -m repro serve --socket /tmp/repro.sock --m 4 --slo 0.1
    python -m repro serve --socket /tmp/repro.sock --m 6 --shards 3 --align-k 2
    python -m repro route --m 6 --shards 3 --strategy overlapping --k 2 --set 3,4
    python -m repro drive --socket /tmp/repro.sock --rate 200 --n 500 --shutdown
    python -m repro bench-serve --m 4 --rate 400 --n 250 --proc 0.005 --seed 42
    python -m repro bench-serve --m 8 --shards 4 --strategy disjoint --rate 2000 --n 2000
    python -m repro ratios
    python -m repro explore --m 15 --k 3
    python -m repro tails --load 0.45
    python -m repro stability
    python -m repro verify
    python -m repro all --out results/
    python -m repro demo

``--quick`` runs reduced-scale versions of the two heavy campaigns
(Figures 10 and 11); without it they run at paper scale.  ``--jobs/-j``
fans independent campaign units out over worker processes with output
identical to the serial run; ``campaign`` additionally caches unit
results under ``results/.cache/`` (re-runs only execute missing units)
and writes a run manifest, and ``replay`` re-executes a recorded
workload trace through any scheduler.  ``--metrics PATH`` (on
``campaign``, ``fig10`` and ``fig11``) writes a canonical
:mod:`repro.obs` metrics snapshot — byte-identical for any ``-j`` —
validatable with ``python -m repro.obs.validate PATH``.

The serving verbs run the dispatch algorithms live (:mod:`repro.serve`):
``serve`` starts the service on a unix socket or TCP port, ``drive``
replays a generated workload against it open-loop at its Poisson
pacing, and ``bench-serve`` runs both ends over loopback sockets
(:func:`repro.serve.loopback.run_loopback`) — placements are
deterministic per seed, so two
``bench-serve`` runs with the same arguments print the same
``assignments sha256`` line.

``rebalance`` (:mod:`repro.rebalance`) runs a dynamic hotspot-shift
workload under static placements and under the LP-driven adaptive
controller — ``--policy compare`` races all three arms on the same
seeded stream, ``--events PATH`` records every placement decision as a
versioned trace that ``replay`` re-runs and byte-compares.

The sharded tier (:mod:`repro.serve.shard`): ``serve --shards N`` runs
N dispatcher shards behind the interval-aware router on one endpoint
(a single server is the one-shard fleet, the default),
``route`` prints a shard plan and where a processing set would land,
and ``bench-serve --shards N`` runs one real server process per shard
with client-side routing — on a disjoint plan the merged digest equals
the single-server one (Theorem 6); ``--chaos`` adds journals, shard
supervision, chaos proxies and resilient drives, and ``--kill-shard``
a mid-drive SIGKILL.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Bounding the Flow Time in Online Scheduling "
        "with Structured Processing Sets' (Canon, Dugois, Marchal, 2022)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="known results on max-flow (context table)")
    p.add_argument("--m", type=int, default=15)

    p = sub.add_parser("table2", help="this paper's bounds, realised by the adversaries")
    p.add_argument("--m", type=int, default=16)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--p", type=float, default=1000.0, help="adversary task length")

    p = sub.add_parser("fig03", help="EFT-Min trace on the Theorem 8 adversary")
    p.add_argument("--m", type=int, default=6)
    p.add_argument("--k", type=int, default=3)

    p = sub.add_parser("fig08", help="load distributions under popularity bias")
    p.add_argument("--m", type=int, default=6)
    p.add_argument("--s", type=float, default=1.0)

    p = sub.add_parser("fig10", help="max-load LP sweep (both strategies)")
    p.add_argument("--m", type=int, default=15)
    p.add_argument("--quick", action="store_true", help="coarse grid, 25 permutations")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("-j", "--jobs", type=int, default=1, help="worker processes (identical output)")
    p.add_argument("--metrics", default=None, metavar="PATH", help="write a metrics snapshot JSON")

    p = sub.add_parser("fig11", help="Fmax vs load simulation campaign")
    p.add_argument("--m", type=int, default=15)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--quick", action="store_true", help="3000 tasks, 3 repeats")
    p.add_argument("--seed", type=int, default=2022)
    p.add_argument("-j", "--jobs", type=int, default=1, help="worker processes (identical output)")
    p.add_argument("--metrics", default=None, metavar="PATH", help="write a metrics snapshot JSON")

    p = sub.add_parser(
        "campaign",
        help="run an experiment campaign with parallel workers, on-disk caching and a manifest",
    )
    p.add_argument("name", choices=["fig10", "fig11"], help="which campaign to run")
    p.add_argument("--quick", action="store_true", help="reduced scale (as fig10/fig11 --quick)")
    p.add_argument("-j", "--jobs", type=int, default=None, help="worker processes (default: all cores)")
    p.add_argument("--m", type=int, default=15)
    p.add_argument("--k", type=int, default=3, help="replication factor (fig11)")
    p.add_argument("--n", type=int, default=None, help="tasks per run (fig11; overrides scale)")
    p.add_argument("--repeats", type=int, default=None, help="runs per point (fig11; overrides scale)")
    p.add_argument("--permutations", type=int, default=None, help="permutations per row (fig10; overrides scale)")
    p.add_argument("--seed", type=int, default=None, help="base seed (default: the figure's)")
    p.add_argument("--cache-dir", default=None, help="unit result cache (default: results/.cache)")
    p.add_argument("--no-cache", action="store_true", help="always execute, never read/write the cache")
    p.add_argument("--out", default=None, help="directory for the rendered result + manifest")
    p.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write a canonical metrics snapshot JSON (byte-identical for any -j)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-unit wall-clock budget; hung units are killed and marked failed",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=0,
        help="re-run failed units up to N times (exponential backoff, deterministic jitter)",
    )
    p.add_argument(
        "--backoff",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="base retry delay (doubles per attempt; default 0.25)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted run: verify the manifest under --out matches "
        "this spec, then re-run against the cache (completed units are hits)",
    )

    p = sub.add_parser(
        "faulted",
        help="degraded mode: EFT under seeded chaos machine failures vs the fault-free baseline",
    )
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--k", type=int, default=2, help="replication factor")
    p.add_argument("--n", type=int, default=400, help="number of tasks")
    p.add_argument("--load", type=float, default=0.5, help="average cluster load")
    p.add_argument("--mtbf", type=float, default=60.0, help="mean time between failures per machine")
    p.add_argument("--mttr", type=float, default=5.0, help="mean time to repair")
    p.add_argument(
        "--policy",
        default="restart",
        choices=["restart", "resume"],
        help="in-flight tasks on a failed machine: restart elsewhere or resume at recovery",
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--metrics", default=None, metavar="PATH", help="write a metrics snapshot JSON")

    p = sub.add_parser("replay", help="replay a recorded workload trace through a scheduler")
    p.add_argument("trace", nargs="?", default=None, help="path to a .trace.jsonl file")
    p.add_argument("--golden", default=None, help="name of a built-in golden trace instead of a path")
    p.add_argument(
        "--scheduler",
        default=None,
        help="any registered zoo policy, e.g. eft-min|srpt-ps|nc-setup|speed-eft "
        "(see compare-schedulers --list; default: the recorded one)",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for randomised schedulers")

    p = sub.add_parser(
        "vec-check",
        help="replay every golden fixture through the vectorized array backend "
        "and assert byte-identity with the checked-in traces",
    )
    p.add_argument(
        "--backend",
        default="array",
        choices=["array", "auto", "reference"],
        help="Simulator backend to regenerate through (default: array)",
    )
    p.add_argument(
        "--golden",
        default=None,
        help="check a single golden case instead of all of them",
    )

    p = sub.add_parser(
        "rebalance",
        help="dynamic hotspot-shift workload: static placements vs LP-driven adaptive re-replication",
    )
    p.add_argument("--m", type=int, default=12)
    p.add_argument("--n", type=int, default=4000, help="number of requests")
    p.add_argument("--k", type=int, default=2, help="initial replication factor")
    p.add_argument("--s", type=float, default=1.5, help="Zipf shape of the hotspot popularity")
    p.add_argument("--lam", type=float, default=None,
                   help="constant arrival rate (default 0.55*m)")
    p.add_argument("--shift-at", type=float, default=None, dest="shift_at",
                   help="virtual time of the hotspot rotation (default mid-run)")
    p.add_argument("--rotation", type=int, default=None,
                   help="ring rotation applied at the shift (default m//2)")
    p.add_argument("--proc", type=float, default=1.0, help="processing time (virtual units)")
    p.add_argument("--strategy", default="overlapping", choices=["overlapping", "disjoint"],
                   help="initial placement family")
    p.add_argument("--policy", default="compare", choices=["compare", "static", "adaptive"],
                   help="compare races static-overlapping/static-disjoint/adaptive on one stream")
    p.add_argument(
        "--scheduler",
        default="eft-min",
        help="any registered zoo policy (see compare-schedulers --list)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cadence", type=float, default=25.0, help="virtual time between controller checks")
    p.add_argument("--window", type=float, default=50.0, help="popularity estimation window")
    p.add_argument("--headroom", type=float, default=0.75,
                   help="trigger fraction: rebalance when work rate > headroom * lambda*")
    p.add_argument("--warmup", type=float, default=2.0,
                   help="virtual-time penalty charged to each newly added replica")
    p.add_argument("--max-k", type=int, default=None, dest="max_k",
                   help="cap on any home's replica count (default: m)")
    p.add_argument("--max-rounds", type=int, default=8, dest="max_rounds",
                   help="greedy widen rounds per check")
    p.add_argument("--faults", default=None, metavar="PATH",
                   help="repro-faults JSON schedule to kill/revive machines mid-run")
    p.add_argument("--events", default=None, metavar="PATH",
                   help="write the versioned rebalance trace (adaptive arm) as JSONL")

    def _endpoint_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--socket", default=None, metavar="PATH", help="unix socket endpoint")
        p.add_argument("--host", default="127.0.0.1", help="TCP host (with --port)")
        p.add_argument("--port", type=int, default=None, help="TCP port endpoint")

    def _workload_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--source", default="spec", choices=["spec", "kv"],
                       help="workload generator: WorkloadSpec or KeyValueStore request stream")
        p.add_argument("--m", type=int, default=4)
        p.add_argument("--n", type=int, default=200, help="number of requests")
        p.add_argument("--rate", type=float, default=100.0, help="Poisson arrivals per virtual unit")
        p.add_argument("--k", type=int, default=2, help="replication factor")
        p.add_argument("--strategy", default="overlapping", choices=["overlapping", "disjoint"])
        p.add_argument("--proc", type=float, default=0.01, help="processing time (virtual units)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--time-scale", type=float, default=1.0,
                       help="wall seconds per virtual time unit")

    p = sub.add_parser("serve", help="run the live dispatch service until a client sends shutdown")
    _endpoint_args(p)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--shards", type=int, default=1,
                   help="dispatcher shards behind the interval-aware router (1: single server)")
    p.add_argument("--align-k", type=int, default=None,
                   help="align shard boundaries to disjoint replication groups of this k "
                   "(zero cross-talk, Theorem 6); default: even intervals")
    p.add_argument(
        "--scheduler",
        default="eft-min",
        help="any registered zoo policy, per shard (see compare-schedulers --list)",
    )
    p.add_argument("--seed", type=int, default=0, help="base seed (shard s uses seed+s)")
    p.add_argument("--slo", type=float, default=None,
                   help="shard-local: shed requests whose estimated flow exceeds this")
    p.add_argument("--max-queue", type=int, default=None,
                   help="shard-local: shed when every eligible machine has this many queued")
    p.add_argument("--time-scale", type=float, default=1.0,
                   help="wall seconds per virtual time unit")
    p.add_argument("--on-unavailable", default="park", choices=["park", "shed"],
                   help="requests whose whole machine set is down: hold or reject")
    p.add_argument("--snapshot", default=None, metavar="PATH",
                   help="write a canonical metrics snapshot here periodically and at exit")
    p.add_argument("--snapshot-every", type=float, default=1.0,
                   help="seconds between snapshots (with --snapshot)")
    p.add_argument("--faults", default=None, metavar="PATH",
                   help="repro-faults JSON schedule to kill/revive workers at runtime")
    p.add_argument("--journal", default=None, metavar="DIR",
                   help="write-ahead journal directory: every state transition is logged "
                   "before acking, and a restart with the same --journal recovers the "
                   "dispatcher exactly (crash-safe serve)")
    p.add_argument("--journal-fsync", default="commit", choices=["commit", "batch", "never"],
                   help="journal durability: fsync per committed op, per batch, or never")
    p.add_argument("--journal-snapshot-every", type=int, default=0, metavar="N",
                   help="compact the journal with a snapshot every N records (0: never)")

    p = sub.add_parser(
        "route",
        help="print a shard plan: intervals, handoff sets, where a processing set lands",
    )
    p.add_argument("--m", type=int, default=6)
    p.add_argument("--shards", type=int, default=2, help="number of dispatcher shards")
    p.add_argument("--align-k", type=int, default=None,
                   help="align shard boundaries to disjoint replication groups of this k")
    p.add_argument("--strategy", default=None, choices=["overlapping", "disjoint"],
                   help="classify this replication family against the plan")
    p.add_argument("--k", type=int, default=2, help="replication factor (with --strategy)")
    p.add_argument("--set", default=None, metavar="J1,J2,...",
                   help="route this processing set (comma-separated 1-based machines)")

    p = sub.add_parser("drive", help="replay a generated workload against a running service")
    _endpoint_args(p)
    _workload_args(p)
    p.add_argument("--shutdown", action="store_true", help="shut the server down afterwards")

    p = sub.add_parser(
        "bench-serve",
        help="serve + drive over an in-process loopback socket (deterministic per seed)",
    )
    _workload_args(p)
    p.add_argument(
        "--scheduler",
        default="eft-min",
        help="any registered zoo policy (see compare-schedulers --list)",
    )
    p.add_argument("--slo", type=float, default=None,
                   help="shed requests whose estimated flow exceeds this (virtual units)")
    p.add_argument("--max-queue", type=int, default=None,
                   help="shed when every eligible machine has this many requests queued")
    p.add_argument("--faults", default=None, metavar="PATH",
                   help="repro-faults JSON schedule to kill/revive workers at runtime")
    p.add_argument("--metrics", default=None, metavar="PATH", help="write a metrics snapshot JSON")
    p.add_argument("--shards", type=int, default=None, metavar="N",
                   help="run N real server processes with client-side shard routing "
                   "(N=1 is the fair single-server baseline; disjoint plans keep the "
                   "digest identical to an unsharded run)")
    p.add_argument("--chaos", action="store_true",
                   help="requires --shards: journalled shard servers restarted by the "
                   "supervisor, driven through seeded chaos proxies by resilient drives")
    p.add_argument("--chaos-seed", type=int, default=None,
                   help="requires --chaos: chaos fault-stream seed (default 0)")
    p.add_argument("--chaos-drop", type=float, default=None,
                   help="requires --chaos: per-frame probability of dropping the "
                   "connection (default 0.02)")
    p.add_argument("--chaos-truncate", type=float, default=None,
                   help="requires --chaos: per-frame probability of a partial write "
                   "then close (default 0.01)")
    p.add_argument("--chaos-corrupt", type=float, default=None,
                   help="requires --chaos: per-frame probability of flipping one body "
                   "byte (default 0.02)")
    p.add_argument("--chaos-duplicate", type=float, default=None,
                   help="requires --chaos: per-frame probability of delivering the "
                   "frame twice (default 0.05)")
    p.add_argument("--chaos-latency", type=float, default=None,
                   help="requires --chaos: upper bound (s) of a uniform per-frame "
                   "delay (default 0)")
    p.add_argument("--kill-shard", type=int, default=None, metavar="SID",
                   help="requires --chaos: SIGKILL this shard's server mid-drive and let "
                   "the supervisor recover it from its journal")
    p.add_argument("--kill-after", type=float, default=None, metavar="FRAC",
                   help="requires --chaos: when to kill, as a fraction of the "
                   "workload's release span (default 0.5)")
    p.add_argument("--recovery-out", default=None, metavar="PATH",
                   help="requires --chaos: write recovery-time + fault stats JSON here")

    p = sub.add_parser(
        "compare-schedulers",
        help="run the scheduler zoo head-to-head on a shared seeded workload grid",
    )
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--n", type=int, default=300, help="tasks per load point")
    p.add_argument("--k", type=int, default=3, help="replication factor")
    p.add_argument("--loads", default="0.7,0.9",
                   help="comma-separated cluster load points")
    p.add_argument("--policies", default="eft-min,srpt-ps,nc-setup,speed-eft",
                   help="comma-separated registry names (any registered policy)")
    p.add_argument("--strategy", default="overlapping", choices=["overlapping", "disjoint"])
    p.add_argument("--case", default="uniform", choices=["uniform", "worst", "shuffled"])
    p.add_argument("--size-dist", default="exp", dest="size_dist",
                   choices=["unit", "exp", "pareto", "uniform"],
                   help="request size distribution (non-unit keeps SRPT distinct from FIFO)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-faults", action="store_true", dest="no_faults",
                   help="disable the seeded chaos fault injection")
    p.add_argument("--mtbf", type=float, default=15.0, help="chaos mean time between failures")
    p.add_argument("--mttr", type=float, default=3.0, help="chaos mean time to repair")
    p.add_argument("--traces", default=None, metavar="DIR",
                   help="write one versioned trace per (policy, load) cell here")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the metric rows as JSON")
    p.add_argument("--list", action="store_true",
                   help="list the registered policies and exit")

    p = sub.add_parser("ratios", help="EFT vs exact OPT on random instances")
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--trials", type=int, default=20)

    p = sub.add_parser("explore", help="future work: candidate replication strategies")
    p.add_argument("--m", type=int, default=15)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--s", type=float, default=1.0)

    p = sub.add_parser("tails", help="flow-time percentile breakdown (tail latency)")
    p.add_argument("--m", type=int, default=15)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--load", type=float, default=0.45)
    p.add_argument("--size-dist", default="unit", choices=["unit", "exp", "pareto", "uniform"])

    p = sub.add_parser("stability", help="LP capacity line as a dynamic phase boundary")
    p.add_argument("--m", type=int, default=15)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--strategy", default="disjoint", choices=["disjoint", "overlapping"])

    sub.add_parser("verify", help="self-check: verify every theorem claim empirically")

    p = sub.add_parser("all", help="run every experiment (quick scale) and write results to a directory")
    p.add_argument("--out", default="results", help="output directory")

    sub.add_parser("demo", help="30-second tour: EFT vs the adversary vs OPT")
    return parser


def _run_table1(args) -> str:
    from .experiments import table1

    return table1.run(args.m).to_text()


def _run_table2(args) -> str:
    from .experiments import table2

    return table2.run(m=args.m, k=args.k, p=args.p).to_text()


def _run_fig03(args) -> str:
    from .experiments import fig03

    return fig03.run(m=args.m, k=args.k).to_text()


def _run_fig08(args) -> str:
    from .experiments import fig08

    return fig08.run(m=args.m, s=args.s).to_text()


def _fig10_scale(args) -> dict:
    """Keyword arguments of ``fig10.build_campaign`` for the CLI scale."""
    kw = dict(m=args.m, rng_seed=args.seed if args.seed is not None else 1234)
    if args.quick:
        kw.update(
            s_values=np.arange(0.0, 5.01, 0.5),
            k_values=np.array(sorted({k for k in (1, 2, 3, 4, 6, 8, 11, args.m) if k <= args.m})),
            n_permutations=25,
        )
    else:
        kw.update(n_permutations=100)
    return kw


def _fig11_scale(args) -> dict:
    """Keyword arguments of ``fig11.build_campaign`` for the CLI scale."""
    kw = dict(m=args.m, k=getattr(args, "k", 3), rng_seed=args.seed if args.seed is not None else 2022)
    if args.quick:
        kw.update(n=3000, repeats=3)
    else:
        kw.update(n=10_000, repeats=10)
    return kw


def _write_figure_metrics(result, args, figure: str) -> str:
    """Write ``result.metrics()`` to ``args.metrics``; returns a
    status line for the CLI output."""
    from .obs import write_metrics

    path = write_metrics(result.metrics(), args.metrics, meta={"figure": figure})
    return f"metrics: {path}"


def _run_fig10(args) -> str:
    from .experiments import fig10

    result = fig10.run(n_jobs=args.jobs, **_fig10_scale(args))
    lines = [result.to_text()]
    if args.metrics:
        lines.append(_write_figure_metrics(result, args, "fig10"))
    return "\n".join(lines)


def _run_fig11(args) -> str:
    from .experiments import fig11

    result = fig11.run(n_jobs=args.jobs, **_fig11_scale(args))
    lines = [result.to_text()]
    if args.metrics:
        lines.append(_write_figure_metrics(result, args, "fig11"))
    return "\n".join(lines)


def _run_campaign(args) -> tuple[str, int]:
    """The ``campaign`` subcommand: build the spec, run it with
    caching and resilience options, render the figure, write result +
    manifest.

    Exit codes: 0 on success, 1 if any unit failed (summary on
    stderr), 2 on a ``--resume`` precondition error, 130 after SIGINT
    (a valid partial manifest is flushed first — the resume point).
    """
    from pathlib import Path

    from .campaigns import (
        CampaignInterrupted,
        ResultCache,
        RetryPolicy,
        build_manifest,
        load_manifest,
        run_campaign,
        write_manifest,
    )
    from .experiments import fig10, fig11

    if args.name == "fig10":
        kw = _fig10_scale(args)
        if args.permutations is not None:
            kw["n_permutations"] = args.permutations
        spec, assemble = fig10.build_campaign(**kw)
    else:
        kw = _fig11_scale(args)
        if args.n is not None:
            kw["n"] = args.n
        if args.repeats is not None:
            kw["repeats"] = args.repeats
        spec, assemble = fig11.build_campaign(**kw)

    cache = None if args.no_cache else ResultCache(args.cache_dir or "results/.cache")
    manifest_path = Path(args.out) / f"{args.name}.manifest.json" if args.out else None

    if args.resume:
        # Resuming means "finish that run": the manifest must exist and
        # describe this exact spec; executed units then hit the cache.
        if manifest_path is None or cache is None:
            print("campaign --resume requires --out and a cache (no --no-cache)", file=sys.stderr)
            return "", 2
        if not manifest_path.exists():
            print(f"campaign --resume: no manifest at {manifest_path}", file=sys.stderr)
            return "", 2
        prev = load_manifest(manifest_path)
        if prev.spec_hash != spec.spec_hash():
            print(
                f"campaign --resume: manifest {manifest_path} is for spec "
                f"{prev.spec_hash}, current arguments give {spec.spec_hash()} "
                "— pass the same scale flags as the interrupted run",
                file=sys.stderr,
            )
            return "", 2

    def _flush(campaign, lines):
        if manifest_path is not None:
            manifest_path.parent.mkdir(parents=True, exist_ok=True)
            write_manifest(build_manifest(campaign), manifest_path)
            lines.append(f"wrote {manifest_path}")

    try:
        campaign = run_campaign(
            spec,
            n_jobs=args.jobs,
            cache=cache,
            raise_on_error=False,
            timeout=args.timeout,
            retry=RetryPolicy(retries=args.retries, backoff=args.backoff),
        )
    except CampaignInterrupted as interrupt:
        # Flush the partial manifest so `--resume` has its resume point.
        campaign = interrupt.result
        lines = [campaign.summary()]
        _flush(campaign, lines)
        print("interrupted — resume with: "
              f"repro campaign {args.name} ... --resume", file=sys.stderr)
        return "\n".join(lines), 130

    lines = []
    if campaign.n_failed:
        # No figure from partial data: report, persist, exit non-zero.
        lines.append(campaign.summary())
        _flush(campaign, lines)
        print(campaign.summary(), file=sys.stderr)
        for o in campaign.failures():
            print(f"  FAILED {o.unit.label or o.unit_hash} "
                  f"({o.attempts} attempt(s)): {o.error}", file=sys.stderr)
        return "\n".join(lines), 1

    text = assemble(campaign.results()).to_text()
    lines = [text, "", campaign.summary()]
    if args.metrics:
        from .obs import campaign_metrics, write_metrics

        # Derived purely from the unit results in unit order, so the
        # snapshot is byte-identical for any -j and any cache state.
        registry = campaign_metrics(spec, campaign.results())
        path = write_metrics(
            registry,
            args.metrics,
            meta={"campaign": spec.name, "spec_hash": spec.spec_hash()},
        )
        lines.append(f"metrics: {path}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{args.name}.txt").write_text(text + "\n")
        lines.append(f"wrote {out / (args.name + '.txt')}")
        _flush(campaign, lines)
    return "\n".join(lines), 0


def _run_faulted(args) -> str:
    from .experiments import faulted

    result = faulted.run(
        m=args.m,
        k=args.k,
        n=args.n,
        load=args.load,
        mtbf=args.mtbf,
        mttr=args.mttr,
        policy=args.policy,
        seed=args.seed,
    )
    lines = [result.to_text()]
    if args.metrics:
        lines.append(_write_figure_metrics(result, args, "faulted"))
    return "\n".join(lines)


def _sniff_trace_format(path: str) -> str | None:
    """Read the ``format`` field of a trace file's header line, or
    ``None`` when the file does not start with a JSON header."""
    import json
    from pathlib import Path

    try:
        with Path(path).open() as fh:
            header = json.loads(fh.readline())
    except (OSError, ValueError):
        return None
    return header.get("format") if isinstance(header, dict) else None


def _replay_rebalance(args) -> str | tuple[str, int]:
    """``replay`` on a rebalance trace: re-run the recorded experiment
    from the header meta and byte-compare the fresh trace."""
    from .rebalance import load_rebalance_trace, replay_rebalance

    if args.scheduler is not None:
        raise SystemExit(
            "replay: --scheduler does not apply to rebalance traces — the "
            "recorded scheduler is part of the determinism contract"
        )
    trace = load_rebalance_trace(args.trace)
    result, identical = replay_rebalance(trace)
    lines = [
        f"rebalance trace: {args.trace} (m={trace.m}, policy={trace.policy}, "
        f"scheduler={trace.scheduler}, seed={trace.seed})",
        f"events: {trace.n_events} check(s), {trace.n_triggered} triggered, "
        f"final placement version {trace.final_version}",
        f"replayed  p99={result.flow['p99']:.6g}  max={result.flow['max']:.6g}  "
        f"digest={result.digest[:16]}",
        f"byte-identical replay: {'yes' if identical else 'no'}",
    ]
    return "\n".join(lines) if identical else ("\n".join(lines), 1)


def _run_replay(args) -> str | tuple[str, int]:
    """The ``replay`` subcommand: load a trace, re-run its workload
    through a scheduler and compare against the recorded placements.
    Rebalance traces (sniffed from the header) re-run the whole
    recorded experiment and byte-compare instead."""
    from .campaigns import goldens as goldens_mod
    from .campaigns import load_trace, make_scheduler, replay_into

    if (args.trace is None) == (args.golden is None):
        raise SystemExit("replay: provide exactly one of a trace path or --golden NAME")
    if args.trace is not None:
        from .rebalance.events import REBALANCE_TRACE_FORMAT

        if _sniff_trace_format(args.trace) == REBALANCE_TRACE_FORMAT:
            return _replay_rebalance(args)
    if args.golden is not None:
        trace = goldens_mod.load_golden(args.golden)
        source = f"golden {args.golden}"
    else:
        trace = load_trace(args.trace)
        source = args.trace
    recorded = trace.schedule()
    name = args.scheduler or (trace.scheduler or "eft-min")
    scheduler = make_scheduler(name, trace.m, seed=args.seed)
    replayed = replay_into(scheduler, trace)
    match = recorded.same_placements(replayed)
    lines = [
        f"trace: {source} (m={trace.m}, n={trace.n}, recorded by {trace.scheduler or 'unknown'})",
        f"replayed with: {scheduler.name}",
        f"recorded  Fmax={recorded.max_flow:.6g}  mean flow={recorded.mean_flow:.6g}",
        f"replayed  Fmax={replayed.max_flow:.6g}  mean flow={replayed.mean_flow:.6g}",
        f"placements match recorded trace: {'yes' if match else 'no'}",
    ]
    return "\n".join(lines)


def _run_vec_check(args) -> str | tuple[str, int]:
    """The ``vec-check`` subcommand: the array-engine byte-identity
    gate.  Regenerates every golden fixture through
    ``Simulator(backend=...)`` and compares the serialised trace
    byte-for-byte against the checked-in file; any drift (including a
    broken silent fallback for the EFT-Rand golden) exits non-zero.
    Two fresh-workload lines follow: the engine's backends agree, and
    ``eft_schedule`` takes the array path to the reference placements."""
    from .campaigns import goldens as goldens_mod
    from .core import EFT, VecSchedule, eft_schedule
    from .simulation import Simulator
    from .simulation.workload import WorkloadSpec, generate_workload

    names = [args.golden] if args.golden else sorted(goldens_mod.GOLDEN_CASES)
    lines = [f"array-engine byte-identity check (backend={args.backend})"]
    failed = 0
    for name in names:
        case = goldens_mod.GOLDEN_CASES[name]
        scheduler = case.make_scheduler()
        sim = Simulator(scheduler, backend=args.backend)
        sim.add_instance(case.make_instance())
        sim.run()
        engine = sim.backend_used or "?"
        note = f" ({sim.fallback_reason})" if sim.fallback_reason else ""
        try:
            goldens_mod.check_golden(name, backend=args.backend)
        except goldens_mod.GoldenMismatch as exc:
            failed += 1
            lines.append(f"  {name:<22} FAIL via {engine}{note}: {exc}")
        else:
            lines.append(f"  {name:<22} ok   via {engine}{note}")
    # Cross-backend parity on a fresh workload, beyond the fixtures.
    spec = WorkloadSpec(m=10, n=600, lam=0.6 * 10, k=3, strategy="overlapping")
    inst = generate_workload(spec, rng=42)
    results = {}
    for backend in ("reference", args.backend):
        sim = Simulator(EFT(10, tiebreak="min"), backend=backend)
        sim.add_instance(inst)
        results[backend] = sim.run()
    ref, alt = results["reference"], results[args.backend]
    parity = (
        ref.max_flow == alt.max_flow
        and ref.mean_flow == alt.mean_flow
        and ref.schedule.same_placements(alt.schedule, tol=0.0)
    )
    if not parity:
        failed += 1
    lines.append(
        f"  {'fresh-workload parity':<22} {'ok' if parity else 'FAIL'}   "
        f"(m=10, n=600, bit-exact fields)"
    )
    # The front door: eft_schedule must decide Min on the array engine,
    # placement for placement what the reference EFT.run decides.
    front = eft_schedule(inst, "min")
    reference = EFT(10, "min").run(inst)
    door = (
        isinstance(front, VecSchedule)
        and front.same_placements(reference, tol=0.0)
        and front.max_flow == reference.max_flow
        and front.mean_flow == reference.mean_flow
    )
    if not door:
        failed += 1
    lines.append(
        f"  {'eft_schedule parity':<22} {'ok' if door else 'FAIL'}   "
        f"(array path == EFT(10, 'min').run, bit-exact)"
    )
    lines.append(f"{len(names) + 2 - failed}/{len(names) + 2} checks passed")
    return ("\n".join(lines), 0 if failed == 0 else 1)


def _run_rebalance(args) -> str:
    """The ``rebalance`` subcommand: run the hotspot-shift scenario
    under one policy or race all three arms on the same stream."""
    from dataclasses import replace
    from pathlib import Path

    from .rebalance import RebalanceConfig, dumps_rebalance_trace, run_rebalance
    from .rebalance.units import default_spec

    params = {
        "m": args.m,
        "n": args.n,
        "k": args.k,
        "s": args.s,
        "strategy": args.strategy,
        "proc": args.proc,
    }
    if args.lam is not None:
        params["lam"] = args.lam
    if args.shift_at is not None:
        params["shift_at"] = args.shift_at
    if args.rotation is not None:
        params["rotation"] = args.rotation
    spec = default_spec(params)
    config = RebalanceConfig(
        cadence=args.cadence,
        window=args.window,
        headroom=args.headroom,
        warmup=args.warmup,
        max_k=args.max_k,
        max_rounds=args.max_rounds,
    )
    faults = _load_faults(args.faults)

    shift_at = spec.popularity.shifts[0][0] if getattr(spec.popularity, "shifts", None) else None
    lines = [
        f"hotspot-shift workload: m={spec.m} n={spec.n} k={spec.k} "
        f"s={args.s:g} lam={spec.rate.rate(0.0):g}"
        + (f" shift@{shift_at:g}" if shift_at is not None else ""),
    ]
    if args.policy == "compare":
        arms = [
            ("static-overlapping", replace(spec, strategy="overlapping"), "static"),
            ("static-disjoint", replace(spec, strategy="disjoint"), "static"),
            ("adaptive", replace(spec, strategy="overlapping"), "adaptive"),
        ]
    else:
        arms = [(args.policy, spec, args.policy)]
    results = {
        name: run_rebalance(
            arm_spec,
            policy=policy,
            config=config,
            scheduler=args.scheduler,
            seed=args.seed,
            faults=faults,
        )
        for name, arm_spec, policy in arms
    }
    lines.append(
        f"{'policy':<20} {'p50':>8} {'p95':>8} {'p99':>8} {'max':>8} "
        f"{'rebal':>6} {'moved':>6}"
    )
    for name, r in results.items():
        lines.append(
            f"{name:<20} {r.flow['p50']:>8.3f} {r.flow['p95']:>8.3f} "
            f"{r.flow['p99']:>8.3f} {r.flow['max']:>8.3f} "
            f"{r.n_rebalances:>6d} {r.n_migrated:>6d}"
        )
    if args.policy == "compare":
        adaptive = results["adaptive"]
        best_static = min(
            results["static-overlapping"].flow["p99"],
            results["static-disjoint"].flow["p99"],
        )
        wins = adaptive.flow["p99"] < best_static
        lines.append(f"adaptive beats both static p99: {'yes' if wins else 'no'}")
    traced = results.get("adaptive") or next(iter(results.values()))
    lines.append(f"assignments sha256 ({traced.policy}): {traced.digest}")
    if args.events:
        path = Path(args.events)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dumps_rebalance_trace(traced.trace))
        lines.append(f"events: {path}")
    return "\n".join(lines)


def _check_endpoint(verb: str, args) -> None:
    if (args.socket is None) == (args.port is None):
        raise SystemExit(f"{verb}: provide exactly one endpoint — --socket PATH or --port N")


def _load_faults(path: str | None):
    if path is None:
        return None
    from pathlib import Path

    from .faults.schedule import FaultSchedule

    return FaultSchedule.from_json(Path(path).read_text())


#: exit code of ``serve`` on an already-bound
#: endpoint — distinct from generic failure so wrappers can tell
#: "pick another socket" from "the service crashed".
EXIT_ADDRESS_IN_USE = 4


def _run_serve(args):
    import asyncio
    import json

    from .serve import AddressInUseError, ServeConfig, serve

    _check_endpoint("serve", args)
    config = ServeConfig(
        m=args.m,
        shards=args.shards,
        align_k=args.align_k,
        scheduler=args.scheduler,
        seed=args.seed,
        slo=args.slo,
        max_queue_depth=args.max_queue,
        time_scale=args.time_scale,
        on_unavailable=args.on_unavailable,
        snapshot_path=args.snapshot,
        snapshot_every=args.snapshot_every,
        journal_dir=args.journal,
        journal_fsync=args.journal_fsync,
        journal_snapshot_every=args.journal_snapshot_every,
    )
    try:
        stats = asyncio.run(
            serve(
                config,
                socket_path=args.socket,
                host=args.host if args.socket is None else None,
                port=args.port,
                faults=_load_faults(args.faults),
            )
        )
    except AddressInUseError as exc:
        return f"serve: {exc}", EXIT_ADDRESS_IN_USE
    return "final stats:\n" + json.dumps(stats, indent=2, sort_keys=True)


def _run_route(args) -> str:
    from .serve import ShardPlan

    plan = ShardPlan.cut(args.m, args.shards, args.align_k)
    lines = [plan.describe()]
    if args.strategy is not None:
        from .psets.replication import get_strategy

        strat = get_strategy(args.strategy, args.m, args.k)
        family = [strat.replicas(u) for u in range(1, args.m + 1)]
        if plan.is_disjoint_for(family):
            lines.append(
                f"{args.strategy}(k={args.k}): disjoint on this plan — "
                "zero cross-talk (Theorem 6 composition)"
            )
        else:
            handoff = plan.handoff_sets(family)
            sets = ", ".join("{" + ",".join(map(str, sorted(s))) + "}" for s in handoff)
            lines.append(
                f"{args.strategy}(k={args.k}): {len(handoff)} handoff set(s) "
                f"straddle a boundary: {sets}"
            )
    if args.set is not None:
        try:
            s = frozenset(int(x) for x in args.set.split(","))
        except ValueError as exc:
            raise SystemExit(f"route: malformed --set {args.set!r}: {exc}") from exc
        r = plan.route(s)
        if r.is_local:
            lines.append(f"set {sorted(s)} -> shard {r.owner} (local)")
        else:
            frags = ", ".join(f"shard {sid}: {sorted(f)}" for sid, f in r.fragments)
            lines.append(f"set {sorted(s)} -> owner shard {r.owner}; fragments: {frags}")
    return "\n".join(lines)


def _run_drive(args) -> str:
    import asyncio

    from .serve import build_drive_instance, drive

    _check_endpoint("drive", args)
    instance = build_drive_instance(
        source=args.source,
        m=args.m,
        n=args.n,
        rate=args.rate,
        k=args.k,
        strategy=args.strategy,
        proc=args.proc,
        seed=args.seed,
    )
    report = asyncio.run(
        drive(
            instance,
            socket_path=args.socket,
            host=args.host if args.socket is None else None,
            port=args.port,
            time_scale=args.time_scale,
            target_rate=args.rate,
            shutdown=args.shutdown,
        )
    )
    return report.to_text()


#: bench-serve flags that only mean something under ``--chaos``: flag,
#: argparse dest and the value ``--chaos`` runs with when it is not given.
_CHAOS_ONLY = (
    ("--chaos-seed", "chaos_seed", 0),
    ("--chaos-drop", "chaos_drop", 0.02),
    ("--chaos-truncate", "chaos_truncate", 0.01),
    ("--chaos-corrupt", "chaos_corrupt", 0.02),
    ("--chaos-duplicate", "chaos_duplicate", 0.05),
    ("--chaos-latency", "chaos_latency", 0.0),
    ("--kill-shard", "kill_shard", None),
    ("--kill-after", "kill_after", 0.5),
    ("--recovery-out", "recovery_out", None),
)


def _run_bench_serve(args) -> str:
    if args.chaos and args.shards is None:
        raise SystemExit("bench-serve --chaos requires --shards")
    for flag, attr, default in _CHAOS_ONLY:
        if getattr(args, attr) is None:
            setattr(args, attr, default)
        elif not args.chaos:
            raise SystemExit(f"bench-serve {flag} requires --chaos")
    if args.shards is not None and (
        args.slo is not None or args.max_queue is not None or args.faults or args.metrics
    ):
        raise SystemExit(
            "bench-serve --shards does not support --slo/--max-queue/--faults/--metrics"
        )
    from .serve import ServeConfig, build_drive_instance, run_loopback

    instance = build_drive_instance(
        source=args.source,
        m=args.m,
        n=args.n,
        rate=args.rate,
        k=args.k,
        strategy=args.strategy,
        proc=args.proc,
        seed=args.seed,
    )
    chaos = None
    if args.chaos:
        from .chaos import ChaosConfig

        chaos = ChaosConfig(
            seed=args.chaos_seed,
            p_drop=args.chaos_drop,
            p_truncate=args.chaos_truncate,
            p_corrupt=args.chaos_corrupt,
            p_duplicate=args.chaos_duplicate,
            latency=args.chaos_latency,
        )
    result = run_loopback(
        instance,
        ServeConfig(
            m=args.m,
            scheduler=args.scheduler,
            seed=args.seed,
            slo=args.slo,
            max_queue_depth=args.max_queue,
            time_scale=args.time_scale,
        ),
        shards=args.shards,
        target_rate=args.rate,
        faults=_load_faults(args.faults),
        metrics_path=args.metrics,
        chaos=chaos,
        kill_shard=args.kill_shard,
        kill_after=args.kill_after,
    )
    lines = [result.to_text()]
    if args.recovery_out:
        import json

        with open(args.recovery_out, "w", encoding="utf-8") as fh:
            json.dump(result.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        lines.append(f"recovery stats: {args.recovery_out}")
    if args.metrics:
        lines.append(f"metrics: {args.metrics}")
    return "\n".join(lines)


def _run_ratios(args) -> str:
    from .experiments import ratios

    return ratios.run(m=args.m, k=args.k, trials=args.trials).to_text()


def _run_explore(args) -> str:
    from .explore import evaluate_strategies

    return evaluate_strategies(m=args.m, k=args.k, s=args.s).to_text()


def _run_tails(args) -> str:
    from .experiments import tails

    return tails.run(
        m=args.m, k=args.k, load=args.load, size_dist=args.size_dist
    ).to_text()


def _run_stability(args) -> str:
    from .experiments import stability

    return stability.run(m=args.m, k=args.k, strategy=args.strategy).to_text()


def _run_verify(args) -> str:
    from .experiments import verify

    return verify.run().to_text()


#: what ``repro all`` regenerates: each verb's own handler at its CLI
#: defaults (fig10/fig11 at --quick)
_ALL_VERBS = (
    "table1", "table2", "fig03", "fig08", "fig10", "fig11", "ratios", "tails", "stability", "verify",
)


def _run_all(args) -> str:
    """Regenerate every table/figure at quick scale into --out."""
    from pathlib import Path

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    parser = build_parser()
    lines = []
    for verb in _ALL_VERBS:
        argv = [verb, "--quick"] if verb in ("fig10", "fig11") else [verb]
        text = _HANDLERS[verb](parser.parse_args(argv))
        path = out / f"{verb}.txt"
        path.write_text(text + "\n")
        lines.append(f"wrote {path}")
    return "\n".join(lines)


def _run_demo(args) -> str:
    from .adversaries import EFTIntervalAdversary, optimal_adversary_schedule
    from .core import EFT, Instance, eft_schedule, render_gantt

    lines = []
    inst = Instance.build(
        4,
        releases=[0, 0, 0, 1, 1, 2],
        procs=1.0,
        machine_sets=[{1, 2}, {1, 2}, {2, 3}, {3, 4}, {1, 2}, {2, 3}],
    )
    sched = eft_schedule(inst, tiebreak="min")
    lines.append("EFT-Min on six replicated requests (m=4, k=2):")
    lines.append(render_gantt(sched))
    m, k = 6, 3
    result = EFTIntervalAdversary(m, k).run(lambda mm: EFT(mm, tiebreak="min"))
    lines.append("")
    lines.append(
        f"Theorem 8 adversary (m={m}, k={k}): EFT-Min forced to Fmax = "
        f"{result.fmax:g} = m-k+1, while the optimum keeps every flow at 1:"
    )
    lines.append(render_gantt(optimal_adversary_schedule(m, k, 4), until=5))
    return "\n".join(lines)


def _run_compare_schedulers(args) -> str:
    import json as _json
    from pathlib import Path

    from .schedulers import CompareConfig, list_schedulers, run_compare

    if args.list:
        lines = ["registered policies:"]
        for info in list_schedulers():
            flags = []
            if info["preemptive"]:
                flags.append("preemptive")
            if not info["clairvoyant"]:
                flags.append("non-clairvoyant")
            suffix = f" [{', '.join(flags)}]" if flags else ""
            lines.append(f"  {info['name']:<12} {info['summary']}{suffix}")
        return "\n".join(lines)
    config = CompareConfig(
        m=args.m,
        n=args.n,
        k=args.k,
        loads=tuple(float(x) for x in args.loads.split(",") if x),
        policies=tuple(x.strip() for x in args.policies.split(",") if x.strip()),
        strategy=args.strategy,
        case=args.case,
        size_dist=args.size_dist,
        seed=args.seed,
        faults=not args.no_faults,
        mtbf=args.mtbf,
        mttr=args.mttr,
    )
    trace_dir = Path(args.traces) if args.traces else None
    out = run_compare(config, trace_dir=trace_dir)
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            _json.dumps(
                {"config": vars(args) | {}, "rows": out["rows"], "sanity": out["sanity"]},
                indent=2,
                sort_keys=True,
                default=str,
            )
            + "\n"
        )
    return out["text"]


_HANDLERS = {
    "table1": _run_table1,
    "table2": _run_table2,
    "fig03": _run_fig03,
    "fig08": _run_fig08,
    "fig10": _run_fig10,
    "fig11": _run_fig11,
    "campaign": _run_campaign,
    "faulted": _run_faulted,
    "replay": _run_replay,
    "vec-check": _run_vec_check,
    "rebalance": _run_rebalance,
    "serve": _run_serve,
    "route": _run_route,
    "drive": _run_drive,
    "bench-serve": _run_bench_serve,
    "compare-schedulers": _run_compare_schedulers,
    "ratios": _run_ratios,
    "explore": _run_explore,
    "tails": _run_tails,
    "stability": _run_stability,
    "verify": _run_verify,
    "all": _run_all,
    "demo": _run_demo,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code.

    Handlers return either the output text (exit 0) or a
    ``(text, code)`` pair — ``campaign`` uses the latter to signal
    failed units (1), resume errors (2) and interruption (130)."""
    args = build_parser().parse_args(argv)
    output = _HANDLERS[args.command](args)
    code = 0
    if isinstance(output, tuple):
        output, code = output
    if output:
        print(output)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
