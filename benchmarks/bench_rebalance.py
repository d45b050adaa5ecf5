"""Rebalance ablation — static placements vs LP-driven re-replication.

Races three arms on the *same* seeded hotspot-shift stream (a Zipf
popularity whose hot region rotates half-way around the ring mid-run):
a static overlapping placement, a static disjoint placement, and the
adaptive controller that re-solves the Equation (15) max-load LP on a
cadence and widens the hottest intervals when the observed work rate
approaches :math:`\\lambda^*`.  The statics are tuned for the first
regime and drown after the shift; the controller must beat both on p99
flow — the tentpole claim of the rebalance subsystem.

A second benchmark injects a machine outage on top of the shift and
checks the controller still converges (the run completes, placements
stay deterministic per seed) while the fault drains through the
engine's failure rule.  The arms' assignment digests are pinned in
``tests/serve/test_fleet_pinned.py``.
"""

from dataclasses import replace

import pytest

from repro.faults import FaultSchedule
from repro.rebalance import RebalanceConfig, run_rebalance
from repro.rebalance.harness import default_spec

CONFIG = RebalanceConfig(cadence=25.0, window=50.0, headroom=0.75, warmup=2.0, max_k=5)


def _run_arms(spec, faults=None) -> dict:
    """Race the three arms on one stream; ``{arm name: RebalanceResult}``."""
    arms = [
        ("static-overlapping", replace(spec, strategy="overlapping"), "static"),
        ("static-disjoint", replace(spec, strategy="disjoint"), "static"),
        ("adaptive", replace(spec, strategy="overlapping"), "adaptive"),
    ]
    return {
        name: run_rebalance(arm_spec, policy=policy, config=CONFIG, seed=0, faults=faults)
        for name, arm_spec, policy in arms
    }


def _print_arms(by_name: dict) -> None:
    print(f"{'policy':<20} {'p50':>9} {'p99':>9} {'max':>9} {'rebal':>6} {'moved':>6}")
    for name, r in by_name.items():
        print(
            f"{name:<20} {r.flow['p50']:>9.3f} {r.flow['p99']:>9.3f} "
            f"{r.flow['max']:>9.3f} {r.n_rebalances:>6d} {r.n_migrated:>6d}"
        )


@pytest.mark.ablation
def test_rebalance_beats_static_on_hotspot_shift(scale):
    n = 8000 if scale == "full" else 3000
    spec = default_spec({"m": 12, "n": n, "k": 2, "s": 1.5})
    by_name = _run_arms(spec)
    print()
    print(f"hotspot-shift rebalance (m={spec.m}, n={n}, k={spec.k}, s=1.5)")
    _print_arms(by_name)
    adaptive = by_name["adaptive"]
    # The tentpole claim: the controller beats BOTH statics on p99.
    for static in ("static-overlapping", "static-disjoint"):
        assert adaptive.flow["p99"] < by_name[static].flow["p99"], (
            f"adaptive p99 {adaptive.flow['p99']:.3f} does not beat "
            f"{static} p99 {by_name[static].flow['p99']:.3f}"
        )
    # ...by actually rebalancing, not by luck.
    assert adaptive.n_rebalances > 0
    assert by_name["static-overlapping"].n_rebalances == 0


@pytest.mark.ablation
def test_rebalance_survives_outage(scale):
    n = 6000 if scale == "full" else 2400
    spec = default_spec({"m": 12, "n": n, "k": 2, "s": 1.5})
    # One machine rides out a maintenance window across the shift.
    horizon = n / spec.lam
    faults = FaultSchedule.build([(3, 0.3 * horizon, 0.5 * horizon)])
    by_name = _run_arms(spec, faults)
    print()
    print(
        f"hotspot shift + outage on machine 3 over "
        f"[{0.3 * horizon:.0f}, {0.5 * horizon:.0f}) (m={spec.m}, n={n})"
    )
    _print_arms(by_name)
    adaptive = by_name["adaptive"]
    # Every task still lands exactly once, deterministically per seed.
    for r in by_name.values():
        assert r.n == n
    rerun = run_rebalance(
        replace(spec, strategy="overlapping"),
        policy="adaptive",
        config=CONFIG,
        seed=0,
        faults=faults,
    )
    assert rerun.digest == adaptive.digest, "adaptive run not deterministic under faults"
    # The controller keeps reacting through the outage...
    assert adaptive.n_rebalances > 0
    # ...and still beats the worse of the two statics on p99.
    worst_static = max(
        by_name["static-overlapping"].flow["p99"],
        by_name["static-disjoint"].flow["p99"],
    )
    assert adaptive.flow["p99"] < worst_static
