"""Campaign units for rebalance experiments.

Pure ``fn(params, seed) -> dict`` functions addressable as
``repro.rebalance.units:run`` / ``repro.rebalance.units:compare`` from
a :class:`~repro.campaigns.spec.CampaignSpec` — content-hashed,
cacheable and crash-isolated like every other unit kind.

The default scenario is the tentpole's hotspot shift: a Zipf-``s``
popularity whose hot region rotates half-way around the ring at
``shift_at`` — the moment a static placement tuned for the first
regime starts drowning.  ``params["spec"]`` overrides the whole
workload with a serialised
:class:`~repro.simulation.workload.WorkloadSpec` (its
:meth:`~repro.simulation.workload.WorkloadSpec.to_dict` form).
"""

from __future__ import annotations

from typing import Any, Mapping

from ..faults.schedule import FaultSchedule
from ..simulation.dynamics import HotspotShift
from ..simulation.workload import WorkloadSpec
from .controller import RebalanceConfig
from .harness import run_rebalance

__all__ = ["compare", "default_spec", "run"]


def default_spec(params: Mapping[str, Any]) -> WorkloadSpec:
    """The hotspot-shift scenario (or ``params["spec"]`` verbatim)."""
    if "spec" in params:
        return WorkloadSpec.from_dict(params["spec"])
    m = int(params.get("m", 12))
    n = int(params.get("n", 4000))
    k = int(params.get("k", 2))
    s = float(params.get("s", 1.5))
    lam = float(params.get("lam", 0.55 * m))
    shift_at = float(params.get("shift_at", n / (2.0 * lam)))
    rotation = int(params.get("rotation", m // 2))
    return WorkloadSpec(
        m=m,
        n=n,
        lam=lam,
        popularity_profile=HotspotShift(m=m, s=s, shifts=((shift_at, rotation),)),
        k=k,
        strategy=str(params.get("strategy", "overlapping")),
        proc=float(params.get("proc", 1.0)),
        size_dist=str(params.get("size_dist", "unit")),
    )


def _config(params: Mapping[str, Any]) -> RebalanceConfig:
    return RebalanceConfig.from_dict(params.get("config") or {})


def _faults(params: Mapping[str, Any]) -> FaultSchedule | None:
    doc = params.get("faults")
    if not doc:
        return None
    if isinstance(doc, str):
        return FaultSchedule.from_json(doc)
    return FaultSchedule.build(tuple((int(j), float(s), float(e)) for j, s, e in doc))


def _result_dict(result) -> dict[str, Any]:
    return {
        "policy": result.policy,
        "flow": dict(result.flow),
        "digest": result.digest,
        "n": result.n,
        "n_rebalances": result.n_rebalances,
        "n_migrated": result.n_migrated,
        "final_version": result.final_version,
    }


def run(params: Mapping[str, Any], seed: int) -> dict[str, Any]:
    """One policy arm: ``params["policy"]`` (default ``adaptive``) on
    the scenario workload."""
    spec = default_spec(params)
    result = run_rebalance(
        spec,
        policy=str(params.get("policy", "adaptive")),
        config=_config(params),
        scheduler=str(params.get("scheduler", "eft-min")),
        seed=seed,
        faults=_faults(params),
    )
    return _result_dict(result)


def compare(params: Mapping[str, Any], seed: int) -> dict[str, Any]:
    """The tentpole comparison: static-overlapping vs static-disjoint
    vs adaptive (from the overlapping start), all on the *same* seeded
    hotspot-shift stream."""
    from dataclasses import replace

    spec = default_spec(params)
    config = _config(params)
    scheduler = str(params.get("scheduler", "eft-min"))
    faults = _faults(params)
    arms = {
        "static_overlapping": (replace(spec, strategy="overlapping"), "static"),
        "static_disjoint": (replace(spec, strategy="disjoint"), "static"),
        "adaptive": (replace(spec, strategy="overlapping"), "adaptive"),
    }
    out: dict[str, Any] = {}
    for name, (arm_spec, policy) in arms.items():
        result = run_rebalance(
            arm_spec,
            policy=policy,
            config=config,
            scheduler=scheduler,
            seed=seed,
            faults=faults,
        )
        out[name] = _result_dict(result)
    out["adaptive_beats_static_p99"] = out["adaptive"]["flow"]["p99"] < min(
        out["static_overlapping"]["flow"]["p99"],
        out["static_disjoint"]["flow"]["p99"],
    )
    return out
