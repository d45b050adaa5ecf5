"""Micro-benchmarks of the scheduling hot paths.

Dispatch throughput is the scalability argument for immediate dispatch
(Section 1): EFT decides in O(k) per task.  These benches track the
per-task cost of the analytic driver, the event-driven engine (both
backends), and the offline solvers.

The headline ablation is :func:`test_array_backend_speedup`: the same
million-task workload through ``Simulator(backend="reference")`` (the
object-per-event loop) and ``Simulator(backend="array")`` (the
vectorized fast-forward), asserting bit-identical results and at least
a 10x wall-clock speedup.  Rows merge into ``BENCH_throughput.json``
at the repo root (machine-readable mirror of the printed table) —
regenerate the checked-in numbers with::

    REPRO_BENCH_SCALE=full python -m pytest \
        benchmarks/bench_scheduler_throughput.py -k speedup -s
"""

import json
import time
from pathlib import Path

import pytest

from repro.core import EFT, VecSchedule, eft_schedule, fifo_schedule
from repro.offline import optimal_unit_fmax
from repro.simulation import Simulator, WorkloadSpec, generate_workload

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"

#: the acceptance floor for the vectorized engine at m=100, n=1M
SPEEDUP_FLOOR = 10.0


def _write_bench_json(section: str, payload: dict) -> None:
    """Merge ``payload`` under ``section`` into BENCH_throughput.json."""
    data = {}
    if BENCH_JSON.is_file():
        try:
            data = json.loads(BENCH_JSON.read_text())
        except json.JSONDecodeError:
            data = {}
    data[section] = payload
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def workload():
    spec = WorkloadSpec(m=15, n=5000, lam=0.5 * 15, k=3, strategy="overlapping")
    return generate_workload(spec, rng=0)


@pytest.fixture(scope="module")
def small_unit_workload():
    spec = WorkloadSpec(m=6, n=60, lam=3.0, k=3, strategy="disjoint")
    inst = generate_workload(spec, rng=1)
    # integral releases for the exact solver
    from repro.core import Instance, Task

    tasks = tuple(
        Task(tid=t.tid, release=float(int(t.release)), proc=1.0, machines=t.machines)
        for t in inst
    )
    return Instance(m=6, tasks=tasks)


def test_eft_dispatch_throughput(benchmark, workload):
    """Reference EFT (the analytic driver) over 5000 tasks, m=15, k=3."""
    result = benchmark(lambda: EFT(15, tiebreak="min").run(workload))
    assert len(result) == 5000


def test_eft_schedule_array_throughput(benchmark, workload):
    """``eft_schedule``'s array path on the same workload, objective
    included (ablation vs the reference implementation above)."""
    fmax = benchmark(lambda: eft_schedule(workload, "min").max_flow)
    assert isinstance(eft_schedule(workload, "min"), VecSchedule)
    assert fmax == EFT(15, tiebreak="min").run(workload).max_flow


def test_fifo_event_loop_throughput(benchmark, workload):
    """Event-driven FIFO on the unrestricted projection of the same
    workload."""
    unrestricted = workload.with_machine_sets([None] * workload.n)
    result = benchmark(fifo_schedule, unrestricted, "min")
    assert len(result) == 5000


def test_engine_throughput(benchmark, workload):
    """Full event-driven engine, reference loop (3 events per task)."""

    def run():
        sim = Simulator(EFT(15, tiebreak="min"), backend="reference")
        sim.add_instance(workload)
        return sim.run()

    result = benchmark(run)
    assert result.n_completed == 5000


def test_engine_array_backend_throughput(benchmark, workload):
    """Full engine through the vectorized fast-forward."""

    def run():
        sim = Simulator(EFT(15, tiebreak="min"), backend="array")
        sim.add_instance(workload)
        result = sim.run()
        assert sim.backend_used == "array", sim.fallback_reason
        return result

    result = benchmark(run)
    assert result.n_completed == 5000


def test_unit_opt_solver(benchmark, small_unit_workload):
    """Exact matching-based optimum on a 60-task instance."""
    value = benchmark(optimal_unit_fmax, small_unit_workload)
    assert value >= 1


def _timed_run(instance, backend: str):
    """One simulation, timing ``add_instance`` + ``run`` (the region
    ``ops_per_s`` of ``benchmarks/perf`` times)."""
    sim = Simulator(EFT(instance.m, tiebreak="min"), backend=backend)
    t0 = time.perf_counter()
    sim.add_instance(instance)
    result = sim.run()
    elapsed = time.perf_counter() - t0
    assert sim.backend_used == backend, sim.fallback_reason
    return result, elapsed


@pytest.mark.ablation
def test_array_backend_speedup(run_once, scale):
    """The tentpole claim: the array backend replays the reference
    engine bit-identically at >= 10x throughput (m=100, 1M tasks at
    full scale)."""
    n = 1_000_000 if scale == "full" else 250_000
    m, k = 100, 3
    spec = WorkloadSpec(m=m, n=n, lam=0.7 * m, k=k, strategy="overlapping")
    inst = generate_workload(spec, rng=0)

    def race():
        ref, t_ref = _timed_run(inst, "reference")
        arr, t_arr = _timed_run(inst, "array")
        return ref, t_ref, arr, t_arr

    ref, t_ref, arr, t_arr = run_once(race)
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
    _write_bench_json(
        f"engine_speedup_{scale}",
        {
            "m": m,
            "n": n,
            "k": k,
            "scale": scale,
            "reference_s": round(t_ref, 3),
            "array_s": round(t_arr, 3),
            "reference_tasks_per_s": round(n / t_ref),
            "array_tasks_per_s": round(n / t_arr),
            "speedup": round(speedup, 2),
            "floor": SPEEDUP_FLOOR,
            "max_flow": arr.max_flow,
        },
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"array backend speedup {speedup:.1f}x is below the "
        f"{SPEEDUP_FLOOR:.0f}x floor at m={m}, n={n}"
    )
