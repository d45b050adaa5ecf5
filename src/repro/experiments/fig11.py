"""Figure 11 — max flow time vs average load (simulation).

For ``m = 15``, ``k = 3``, 10 000 unit tasks released by a Poisson
process: max-flow of EFT-Min and EFT-Max under both replication
strategies, in the three popularity cases (Uniform; Shuffled and
Worst-case with ``s = 1``), median over 10 runs per point.  Each facet
also reports the theoretical max-load of both strategies from the LP —
the red vertical lines of the paper (≈ 100 for Uniform; ≈ 66/52 for
Shuffled; ≈ 59/36 for Worst-case, overlapping/disjoint).

The measurement loop is a campaign (:mod:`repro.campaigns`): one unit
per ``(case, strategy, heuristic, load)`` curve point, each carrying
its own seeds and popularity weights, so points can run on any number
of workers (``n_jobs=``) and hit the on-disk result cache — with
output numerically identical to the serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..campaigns.cache import ResultCache
from ..campaigns.runner import run_campaign
from ..campaigns.spec import CampaignSpec, Unit
from ..core.eft import eft_schedule
from ..maxload.lp import max_load_lp
from ..obs.recorders import MetricsRegistry, linear_edges
from ..simulation.popularity import MachinePopularity, shuffled_case, uniform_case, worst_case
from ..simulation.workload import WorkloadSpec, generate_workload
from .common import TextTable

__all__ = ["Fig11Point", "Fig11Result", "build_campaign", "measure_unit", "run", "DEFAULT_LOADS"]

#: Load grids (percent) per case, matching the paper's facet axes.
DEFAULT_LOADS: dict[str, tuple[int, ...]] = {
    "uniform": (20, 30, 40, 50, 60, 70, 80, 90, 100),
    "shuffled": (10, 20, 30, 40, 50, 60),
    "worst": (10, 20, 30, 40, 50, 60),
}


@dataclass(frozen=True)
class Fig11Point:
    """One (case, strategy, heuristic, load) measurement."""

    case: str
    strategy: str
    heuristic: str
    load_percent: float
    fmax_median: float
    fmax_runs: tuple[float, ...]


@dataclass
class Fig11Result:
    """All series of Figure 11 plus the per-case LP red lines."""

    m: int
    k: int
    n: int
    repeats: int
    points: list[Fig11Point] = field(default_factory=list)
    max_load_lines: dict = field(default_factory=dict)  # case -> {strategy: percent}

    def series(self, case: str, strategy: str, heuristic: str) -> list[tuple[float, float]]:
        """(load %, median Fmax) pairs of one curve."""
        return [
            (p.load_percent, p.fmax_median)
            for p in self.points
            if p.case == case and p.strategy == strategy and p.heuristic == heuristic
        ]

    def to_table(self) -> TextTable:
        table = TextTable(
            title=(
                f"Figure 11: median Fmax vs average load "
                f"(m={self.m}, k={self.k}, n={self.n}, {self.repeats} runs)"
            ),
            headers=["case", "strategy", "heuristic", "load %", "median Fmax"],
        )
        for p in self.points:
            table.add_row(p.case, p.strategy, p.heuristic, p.load_percent, p.fmax_median)
        for case, lines in self.max_load_lines.items():
            table.notes.append(
                f"{case}: LP max load overlapping={lines['overlapping']:.0f}%, "
                f"disjoint={lines['disjoint']:.0f}%"
            )
        return table

    def to_text(self) -> str:
        return self.to_table().to_text()

    def metrics(self) -> MetricsRegistry:
        """Deterministic metrics view of the figure (the ``--metrics``
        payload): one ``fmax`` series per curve (load % on the time
        axis), an ``fmax_runs`` histogram over every individual run,
        and the LP red lines as gauges."""
        registry = MetricsRegistry()
        registry.counter("points").inc(len(self.points))
        all_runs: list[float] = []
        for p in self.points:
            registry.series(
                f"fmax[{p.case}/{p.strategy}/{p.heuristic}]"
            ).observe(p.load_percent, p.fmax_median)
            all_runs.extend(p.fmax_runs)
        if all_runs:
            registry.histogram(
                "fmax_runs", linear_edges(min(all_runs), max(all_runs), 12)
            ).observe_all(all_runs)
        for case, lines in self.max_load_lines.items():
            for strategy, percent in lines.items():
                registry.gauge(f"lp_max_load[{case}/{strategy}]").set(percent)
        return registry


def _popularity(case: str, m: int, s: float, rng: np.random.Generator) -> MachinePopularity:
    if case == "uniform":
        return uniform_case(m)
    if case == "worst":
        return worst_case(m, s)
    return shuffled_case(m, s, rng)


def measure_unit(params: Mapping[str, Any], seed: int) -> dict[str, Any]:
    """Campaign unit executor: one ``(case, strategy, heuristic,
    load)`` curve point, median over ``repeats`` seeded runs.

    Pure function of ``(params, seed)`` — the popularity weights of
    every repeat ride along in ``params`` so the unit is self-contained
    (hashable for the cache, executable on any worker).  The per-repeat
    workload seed is ``seed + 1000 * rep + load``, exactly the serial
    seeding this module has always used, so parallel and serial runs
    produce identical numbers.
    """
    m = int(params["m"])
    load = int(params["load"])
    repeats = int(params["repeats"])
    lam = load / 100.0 * m
    runs = []
    for rep in range(repeats):
        pop = MachinePopularity(
            weights=np.asarray(params["pop_weights"][rep], dtype=float),
            case=str(params["case"]),
            s=float(params["s"]),
        )
        spec = WorkloadSpec(
            m=m,
            n=int(params["n"]),
            lam=lam,
            k=int(params["k"]),
            strategy=str(params["strategy"]),
            case=str(params["case"]),
            s=float(params["s"]),
        )
        inst = generate_workload(
            spec,
            rng=np.random.default_rng(seed + 1000 * rep + load),
            popularity=pop,
        )
        runs.append(eft_schedule(inst, tiebreak=str(params["heuristic"])).max_flow)
    return {"fmax_runs": [float(f) for f in runs]}


def build_campaign(
    m: int = 15,
    k: int = 3,
    n: int = 10_000,
    repeats: int = 10,
    s: float = 1.0,
    loads: dict[str, tuple[int, ...]] | None = None,
    cases: tuple[str, ...] = ("uniform", "shuffled", "worst"),
    rng_seed: int = 2022,
) -> tuple[CampaignSpec, Callable[[Sequence[Mapping[str, Any]]], Fig11Result]]:
    """Describe the Figure 11 campaign.

    Returns the :class:`CampaignSpec` (one unit per curve point) and
    an ``assemble(unit_results) -> Fig11Result`` closure that folds the
    unit results — in unit order — back into the figure, including the
    LP red lines (computed here: the LP is cheap, the measurements are
    not).
    """
    loads = dict(DEFAULT_LOADS) if loads is None else loads
    rng = np.random.default_rng(rng_seed)
    max_load_lines: dict[str, dict[str, float]] = {}
    units: list[Unit] = []
    point_keys: list[tuple[str, str, str, int]] = []
    for case in cases:
        # One popularity per repeat, shared by every curve of the facet
        # (and, for Shuffled, one permutation per repeat), as in the
        # paper.  Drawn here, sequentially, so the stream matches the
        # historical serial implementation.
        pops = [_popularity(case, m, s, rng) for _ in range(repeats)]
        # Red lines: median LP max-load over the repeat popularities.
        max_load_lines[case] = {
            strat: float(
                np.median([max_load_lp(pop, strat, k).load_percent for pop in pops])
            )
            for strat in ("overlapping", "disjoint")
        }
        weights = [[float(w) for w in pop.weights] for pop in pops]
        for strategy in ("overlapping", "disjoint"):
            for heuristic in ("min", "max"):
                for load in loads[case]:
                    units.append(
                        Unit(
                            kind="repro.experiments.fig11:measure_unit",
                            params={
                                "m": m,
                                "k": k,
                                "n": n,
                                "s": s,
                                "repeats": repeats,
                                "case": case,
                                "strategy": strategy,
                                "heuristic": heuristic,
                                "load": int(load),
                                "pop_weights": weights,
                            },
                            seed=rng_seed,
                            label=f"fig11 {case}/{strategy}/EFT-{heuristic} load={load}%",
                        )
                    )
                    point_keys.append((case, strategy, heuristic, int(load)))
    spec = CampaignSpec(
        name="fig11",
        units=tuple(units),
        meta={"m": m, "k": k, "n": n, "repeats": repeats, "s": s, "rng_seed": rng_seed},
    )

    def assemble(unit_results: Sequence[Mapping[str, Any]]) -> Fig11Result:
        result = Fig11Result(m=m, k=k, n=n, repeats=repeats)
        result.max_load_lines = max_load_lines
        for (case, strategy, heuristic, load), unit_result in zip(point_keys, unit_results):
            runs = [float(f) for f in unit_result["fmax_runs"]]
            result.points.append(
                Fig11Point(
                    case=case,
                    strategy=strategy,
                    heuristic=f"EFT-{heuristic.capitalize()}",
                    load_percent=float(load),
                    fmax_median=float(np.median(runs)),
                    fmax_runs=tuple(runs),
                )
            )
        return result

    return spec, assemble


def run(
    m: int = 15,
    k: int = 3,
    n: int = 10_000,
    repeats: int = 10,
    s: float = 1.0,
    loads: dict[str, tuple[int, ...]] | None = None,
    cases: tuple[str, ...] = ("uniform", "shuffled", "worst"),
    rng_seed: int = 2022,
    n_jobs: int | None = 1,
    cache: ResultCache | None = None,
) -> Fig11Result:
    """Run the Figure 11 simulation campaign.

    Paper-scale by default (``n = 10000``, ``repeats = 10``); pass
    smaller values for quick runs.  Within one repeat the same
    popularity (and, for Shuffled, the same permutation) is shared by
    every curve, as in the paper.  ``n_jobs`` fans curve points out
    over worker processes (``None`` = all cores) with numerically
    identical output; ``cache`` reuses previously computed points.
    """
    spec, assemble = build_campaign(
        m=m, k=k, n=n, repeats=repeats, s=s, loads=loads, cases=cases, rng_seed=rng_seed
    )
    campaign = run_campaign(spec, n_jobs=n_jobs, cache=cache)
    return assemble(campaign.results())
