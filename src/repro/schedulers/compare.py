"""Head-to-head policy comparison on a shared workload grid.

``repro compare-schedulers`` (and the campaign units of
:mod:`repro.schedulers.units`) run every requested zoo policy over the
*same* seeded instances — the apples-to-apples setup the SRPT and
related-machines baselines in PAPERS.md call for — and emit:

* a canonical fixed-width comparison table (deterministic bytes for a
  given config: seeded workloads, seeded chaos faults, no wall-clock
  inputs anywhere);
* one versioned trace per ``(policy, load)`` cell — the policy's
  *analytic* fault-free placements in the standard
  :mod:`repro.campaigns.trace` format, replayable and diffable;
* a sanity line for the zoo's one provable cross-policy ordering:
  on the identical-machines fault-free case, SRPT-PS mean flow ≤
  EFT-Min mean flow (per-machine preemptive SRPT is optimal for mean
  completion time, and both policies dispatch identically) — the
  ``make zoo-smoke`` gate greps for it.

Simulated metrics (mean/max flow, preemptions, requeues) come from the
reference engine with the configured chaos fault schedule active; the
traces are recorded fault-free so they stay valid
:class:`~repro.core.schedule.Schedule` artefacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from ..campaigns.spec import stable_seed
from ..campaigns.trace import dump, record
from ..faults.schedule import chaos_schedule
from ..simulation.engine import Simulator
from ..simulation.workload import WorkloadSpec, generate_workload
from .registry import get_scheduler

__all__ = ["CompareConfig", "compare_cell", "run_compare", "render_table"]

#: Default zoo roster of the comparison grid (EFT plus the three new
#: policies of the subsystem; any registry name is accepted).
DEFAULT_POLICIES: tuple[str, ...] = ("eft-min", "srpt-ps", "nc-setup", "speed-eft")


@dataclass(frozen=True)
class CompareConfig:
    """Grid parameters of one comparison run."""

    m: int = 10
    n: int = 300
    k: int = 3
    loads: tuple[float, ...] = (0.7, 0.9)
    policies: tuple[str, ...] = DEFAULT_POLICIES
    strategy: str = "overlapping"
    case: str = "uniform"
    #: non-unit sizes by default: SRPT sequencing only differs from
    #: FIFO when remaining work varies.
    size_dist: str = "exp"
    seed: int = 0
    #: chaos fault injection (seeded MTBF/MTTR schedule) on the
    #: simulated metrics; traces are always recorded fault-free.
    faults: bool = True
    mtbf: float = 15.0
    mttr: float = 3.0
    fault_machines: int = 2

    def workload_spec(self, load: float) -> WorkloadSpec:
        """The shared workload of one load point (``lam`` chosen so the
        cluster load :math:`\\lambda \\bar p / m` equals ``load``)."""
        return WorkloadSpec(
            m=self.m,
            n=self.n,
            lam=load * self.m,
            k=self.k,
            strategy=self.strategy,
            case=self.case,
            size_dist=self.size_dist,
        )


def _instance_for(config: CompareConfig, load: float):
    """The one shared instance of a load point (same bytes for every
    policy — the comparison's whole point)."""
    seed = stable_seed("compare-workload", config.seed, config.m, config.n, f"{load:g}")
    return generate_workload(config.workload_spec(load), rng=seed)


def _faults_for(config: CompareConfig, load: float, horizon: float):
    if not config.faults:
        return None
    seed = stable_seed("compare-faults", config.seed, f"{load:g}")
    machines = list(range(1, min(config.fault_machines, config.m) + 1))
    return chaos_schedule(
        config.m,
        horizon,
        mtbf=config.mtbf,
        mttr=config.mttr,
        seed=seed,
        machines=machines,
    )


def compare_cell(
    config: CompareConfig, policy: str, load: float, trace_dir: Path | None = None
) -> dict[str, Any]:
    """Run one ``(policy, load)`` cell; returns the metrics row.

    The simulated run uses the configured chaos faults; the optional
    trace is the policy's analytic fault-free schedule over the same
    instance (a valid, replayable artefact either way).
    """
    inst = _instance_for(config, load)
    horizon = max((t.release for t in inst), default=0.0) + 1.0
    seed = stable_seed("compare-policy", config.seed, policy, f"{load:g}")
    sim = Simulator(
        get_scheduler(policy, config.m, seed=seed),
        faults=_faults_for(config, load, horizon),
    )
    sim.add_instance(inst)
    res = sim.run()
    row: dict[str, Any] = {
        "policy": policy,
        "load": load,
        "mean_flow": res.mean_flow,
        "max_flow": res.max_flow,
        "makespan": res.makespan,
        "n_completed": res.n_completed,
        "n_preempted": res.n_preempted,
        "n_requeued": res.n_requeued,
        "utilization": res.utilization,
    }
    if trace_dir is not None:
        sched = get_scheduler(policy, config.m, seed=seed)
        sched.run(inst)
        trace = record(
            sched.schedule(),
            scheduler=getattr(sched, "name", policy),
            meta={
                "experiment": "compare-schedulers",
                "policy": policy,
                "load": load,
                "seed": config.seed,
                "m": config.m,
                "n": config.n,
            },
        )
        path = Path(trace_dir) / f"compare_{policy}_load{load:g}.trace.jsonl"
        dump(trace, path)
        row["trace"] = str(path)
    return row


def sanity_check(config: CompareConfig) -> dict[str, Any]:
    """The provable ordering: fault-free identical machines, SRPT-PS
    mean flow ≤ EFT-Min mean flow on the shared instance of the first
    load point."""
    load = config.loads[0]
    inst = _instance_for(config, load)
    flows = {}
    for policy in ("srpt-ps", "eft-min"):
        sim = Simulator(get_scheduler(policy, config.m, seed=0))
        sim.add_instance(inst)
        flows[policy] = sim.run().mean_flow
    ok = flows["srpt-ps"] <= flows["eft-min"] + 1e-9
    return {
        "srpt_mean_flow": flows["srpt-ps"],
        "eft_mean_flow": flows["eft-min"],
        "ok": ok,
    }


_COLUMNS = (
    ("load", 6),
    ("policy", 11),
    ("mean_flow", 12),
    ("max_flow", 12),
    ("makespan", 12),
    ("done", 6),
    ("preempt", 8),
    ("requeue", 8),
    ("util", 7),
)


def render_table(rows: list[Mapping[str, Any]]) -> str:
    """Fixed-width canonical table (stable bytes for equal rows)."""
    header = "  ".join(name.ljust(width) for name, width in _COLUMNS)
    lines = [header, "-" * len(header)]
    for r in rows:
        cells = (
            f"{r['load']:.2f}".ljust(6),
            str(r["policy"]).ljust(11),
            f"{r['mean_flow']:.6f}".rjust(12),
            f"{r['max_flow']:.6f}".rjust(12),
            f"{r['makespan']:.6f}".rjust(12),
            str(r["n_completed"]).rjust(6),
            str(r["n_preempted"]).rjust(8),
            str(r["n_requeued"]).rjust(8),
            f"{r['utilization']:.4f}".rjust(7),
        )
        lines.append("  ".join(cells))
    return "\n".join(lines)


def run_compare(
    config: CompareConfig, trace_dir: Path | None = None
) -> dict[str, Any]:
    """Run the whole grid; returns ``{"rows", "table", "sanity", ...}``.

    Rows are ordered load-major, policy in config order — the
    deterministic layout the table and the smoke target rely on.
    """
    rows = [
        compare_cell(config, policy, load, trace_dir=trace_dir)
        for load in config.loads
        for policy in config.policies
    ]
    sanity = sanity_check(config)
    table = render_table(rows)
    lines = [table, ""]
    lines.append(
        "sanity identical-machines fault-free: "
        f"srpt-ps mean flow {sanity['srpt_mean_flow']:.6f} <= "
        f"eft-min mean flow {sanity['eft_mean_flow']:.6f}: "
        + ("OK" if sanity["ok"] else "VIOLATED")
    )
    return {
        "rows": rows,
        "table": table,
        "sanity": sanity,
        "text": "\n".join(lines),
    }
