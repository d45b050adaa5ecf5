"""Campaign units for the scheduler zoo.

One unit per ``(policy, load)`` cell of a comparison grid, pure and
seeded — executable on any campaign worker via the importable kind
``"repro.schedulers.units:compare_unit"`` (no registration needed in
spawned processes).  :func:`build_compare_campaign` lays a
:class:`~repro.campaigns.spec.CampaignSpec` over the same grid the CLI
verb runs inline, so zoo comparisons cache, resume, and parallelise
like every other campaign.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..campaigns.spec import CampaignSpec, Unit
from .compare import CompareConfig, compare_cell

__all__ = ["compare_unit", "build_compare_campaign"]

#: The importable unit kind (survives any worker start method).
COMPARE_UNIT_KIND = "repro.schedulers.units:compare_unit"

_CONFIG_FIELDS = (
    "m",
    "n",
    "k",
    "strategy",
    "case",
    "size_dist",
    "faults",
    "mtbf",
    "mttr",
    "fault_machines",
)


def _config_from_params(params: Mapping[str, Any], seed: int) -> CompareConfig:
    kwargs = {f: params[f] for f in _CONFIG_FIELDS if f in params}
    return CompareConfig(seed=seed, **kwargs)


def compare_unit(params: Mapping[str, Any], seed: int) -> dict[str, Any]:
    """Pure executor of one comparison cell.

    ``params`` carries ``policy``, ``load`` and any
    :class:`~repro.schedulers.compare.CompareConfig` field; ``seed`` is
    the config seed (the cell derives its own sub-seeds), so equal
    units hash equal and cache soundly.
    """
    config = _config_from_params(params, seed)
    return compare_cell(config, str(params["policy"]), float(params["load"]))


def build_compare_campaign(config: CompareConfig, name: str = "compare-schedulers") -> CampaignSpec:
    """One unit per ``(policy, load)`` cell of ``config``'s grid."""
    base_params = {
        f: getattr(config, f) for f in _CONFIG_FIELDS
    }
    units = []
    for load in config.loads:
        for policy in config.policies:
            params = dict(base_params, policy=policy, load=load)
            units.append(
                Unit(
                    kind=COMPARE_UNIT_KIND,
                    params=params,
                    seed=config.seed,
                    label=f"{policy}@{load:g}",
                )
            )
    return CampaignSpec.build(
        name,
        units,
        m=config.m,
        n=config.n,
        loads=list(config.loads),
        policies=list(config.policies),
        seed=config.seed,
    )
