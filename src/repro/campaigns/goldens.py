"""Golden traces: checked-in regression fixtures for scheduler output.

Each golden case pairs a deterministic workload generator with a
deterministic scheduler; the recorded trace is checked into
``src/repro/campaigns/goldens/`` and the test suite's oracles
(``tests/oracles.py``) assert that re-running the scheduler today —
directly, through either ``Simulator`` backend, or through the serve
tier, one shard or several — reproduces the checked-in file
**byte-identically**: any change to EFT's decision logic, tie-break
order, or the trace serialisation shows up as a golden diff.

Regenerate after an intentional behaviour change with::

    python -c "from repro.campaigns import goldens; goldens.write_goldens()"
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ..core.dispatch import ImmediateDispatchScheduler
from ..core.eft import EFT
from ..core.task import Instance
from ..simulation.workload import WorkloadSpec, generate_workload
from .trace import Trace, dump, load, record

__all__ = [
    "GOLDEN_DIR",
    "GOLDEN_CASES",
    "GoldenCase",
    "generate",
    "golden_path",
    "load_golden",
    "write_goldens",
]

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"


@dataclass(frozen=True)
class GoldenCase:
    """One golden fixture: a workload and the scheduler that ran it."""

    name: str
    description: str
    make_instance: Callable[[], Instance]
    make_scheduler: Callable[[], ImmediateDispatchScheduler]


def _instance_eft_min_m4() -> Instance:
    spec = WorkloadSpec(m=4, n=24, lam=3.0, k=2, strategy="overlapping", case="shuffled", s=1.0)
    return generate_workload(spec, rng=np.random.default_rng(7))


def _instance_eft_min_m6_disjoint() -> Instance:
    spec = WorkloadSpec(m=6, n=36, lam=4.0, k=2, strategy="disjoint", case="shuffled", s=1.0)
    return generate_workload(spec, rng=np.random.default_rng(17))


def _instance_eft_rand_m5() -> Instance:
    spec = WorkloadSpec(m=5, n=30, lam=4.0, k=2, strategy="disjoint", case="worst", s=1.0)
    return generate_workload(spec, rng=np.random.default_rng(11))


GOLDEN_CASES: dict[str, GoldenCase] = {
    "eft-min-m4": GoldenCase(
        name="eft-min-m4",
        description="EFT-Min on 24 overlapping-replicated tasks, m=4, k=2 (seed 7)",
        make_instance=_instance_eft_min_m4,
        make_scheduler=lambda: EFT(4, tiebreak="min"),
    ),
    # Disjoint replication admits an exact multi-shard cut (Theorem 6),
    # so this case doubles as the sharded-tier byte-identity oracle
    # (tests/oracles.py checks it on 2- and 3-shard plans).
    "eft-min-m6-disjoint": GoldenCase(
        name="eft-min-m6-disjoint",
        description="EFT-Min on 36 disjoint-replicated tasks, m=6, k=2 (seed 17)",
        make_instance=_instance_eft_min_m6_disjoint,
        make_scheduler=lambda: EFT(6, tiebreak="min"),
    ),
    "eft-rand-m5": GoldenCase(
        name="eft-rand-m5",
        description="EFT-Rand (seed 123) on 30 disjoint-replicated tasks, m=5, k=2 (seed 11)",
        make_instance=_instance_eft_rand_m5,
        make_scheduler=lambda: EFT(5, tiebreak="rand", rng=123),
    ),
}


def golden_path(name: str) -> Path:
    """On-disk location of the golden trace ``name``."""
    if name not in GOLDEN_CASES:
        raise KeyError(f"unknown golden case {name!r}; known: {sorted(GOLDEN_CASES)}")
    return GOLDEN_DIR / f"{name}.trace.jsonl"


def generate(name: str) -> Trace:
    """Regenerate the golden trace ``name`` from scratch through the
    scheduler's own driver (what the checked-in files were recorded
    with)."""
    case = GOLDEN_CASES[name]
    instance = case.make_instance()
    scheduler = case.make_scheduler()
    schedule = scheduler.run(instance)
    return record(schedule, scheduler=scheduler.name, meta={"golden": name, "description": case.description})


def load_golden(name: str) -> Trace:
    """Load the checked-in golden trace ``name``."""
    return load(golden_path(name))


def write_goldens(names: list[str] | None = None) -> list[Path]:
    """(Re)write golden trace files; returns the written paths.

    Only for intentional regeneration — goldens are fixtures, not
    build artifacts.
    """
    paths = []
    for name in names or sorted(GOLDEN_CASES):
        paths.append(dump(generate(name), golden_path(name)))
    return paths
