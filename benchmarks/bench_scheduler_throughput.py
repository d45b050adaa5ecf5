"""Ablation: the array backend against the reference event loop.

:func:`test_array_backend_speedup` runs the same workload through
``Simulator(backend="reference")`` (the object-per-event loop) and
``Simulator(backend="auto")`` (which must take the vectorized
fast-forward), asserts
bit-identical results and a 10x wall-clock floor, and prints the race.
``make vec-smoke`` runs it at quick scale; the capacity numbers and
their per-layer split come from ``benchmarks/perf``.
"""

import time

import pytest

from repro.core import EFT
from repro.simulation import Simulator, WorkloadSpec, generate_workload

#: the acceptance floor for the vectorized engine at m=100
SPEEDUP_FLOOR = 10.0


def _timed_run(instance, backend: str, engine: str):
    """One simulation on ``backend``, which must run on ``engine``,
    timing ``add_instance`` + ``run`` (the region ``ops_per_s`` of
    ``benchmarks/perf`` times)."""
    sim = Simulator(EFT(instance.m, tiebreak="min"), backend=backend)
    t0 = time.perf_counter()
    sim.add_instance(instance)
    result = sim.run()
    elapsed = time.perf_counter() - t0
    assert sim.backend_used == engine, sim.fallback_reason
    return result, elapsed


@pytest.mark.ablation
def test_array_backend_speedup(scale):
    """The array backend replays the reference engine bit-identically
    at >= 10x throughput (m=100, 1M tasks at full scale)."""
    n = 1_000_000 if scale == "full" else 250_000
    m, k = 100, 3
    spec = WorkloadSpec(m=m, n=n, lam=0.7 * m, k=k, strategy="overlapping")
    inst = generate_workload(spec, rng=0)
    ref, t_ref = _timed_run(inst, "reference", "reference")
    arr, t_arr = _timed_run(inst, "auto", "array")
    speedup = t_ref / t_arr
    print()
    print(f"engine throughput (m={m}, n={n}, k={k}, scale={scale})")
    print(f"{'backend':<12} {'wall s':>9} {'tasks/s':>12}")
    print(f"{'reference':<12} {t_ref:>9.3f} {n / t_ref:>12.0f}")
    print(f"{'array':<12} {t_arr:>9.3f} {n / t_arr:>12.0f}")
    print(f"speedup: {speedup:.1f}x")
    # bit-identical, not approximately equal
    assert arr.max_flow == ref.max_flow
    assert arr.mean_flow == ref.mean_flow
    assert arr.makespan == ref.makespan
    assert arr.n_completed == ref.n_completed == n
    assert arr.utilization == ref.utilization
    assert speedup >= SPEEDUP_FLOOR, (
        f"array backend speedup {speedup:.1f}x is below the "
        f"{SPEEDUP_FLOOR:.0f}x floor at m={m}, n={n}"
    )
