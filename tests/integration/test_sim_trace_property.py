"""Property-style cross-validation of the three execution paths.

For random workloads across seeds, machine counts and tie-breaks, the
event-driven :class:`Simulator`, the analytic ``EFT.run`` driver
and a recorded-trace replay must all produce the *same placements* —
the engine's raison d'être (engine.py, reason 3) extended to the new
trace substrate.
"""

import numpy as np
import pytest

from repro.campaigns import record, replay_into
from repro.core import EFT, eft_schedule
from repro.simulation import Simulator
from repro.simulation.workload import WorkloadSpec, generate_workload

CONFIGS = [
    (m, tiebreak, seed)
    for m in (4, 8, 15)
    for tiebreak in ("min", "max", "rand")
    for seed in (0, 1, 2)
]


def _instance(m, seed):
    k = 2 if m < 8 else 3
    spec = WorkloadSpec(
        m=m,
        n=60,
        lam=0.6 * m,
        k=k,
        strategy="overlapping" if seed % 2 == 0 else "disjoint",
        case="shuffled",
        s=1.0,
        size_dist="exp" if seed % 3 == 0 else "unit",
    )
    return generate_workload(spec, rng=np.random.default_rng(1000 * m + seed))


@pytest.mark.parametrize("m,tiebreak,seed", CONFIGS)
def test_simulator_matches_analytic_eft(m, tiebreak, seed):
    """Event-driven execution == analytic schedule, placement for
    placement (random tie-breaks share the seed, so the decision
    streams coincide)."""
    inst = _instance(m, seed)
    analytic = EFT(m, tiebreak=tiebreak, rng=seed).run(inst)
    sim = Simulator(EFT(m, tiebreak=tiebreak, rng=seed))
    sim.add_instance(inst)
    result = sim.run()
    assert result.n_pending == 0
    assert result.schedule.same_placements(analytic)


@pytest.mark.parametrize("m,tiebreak,seed", CONFIGS)
def test_trace_replay_reproduces_schedule(m, tiebreak, seed):
    """record -> replay_into reproduces the original schedule exactly."""
    inst = _instance(m, seed)
    original = eft_schedule(inst, tiebreak=tiebreak, rng=seed)
    trace = record(original, scheduler=f"EFT-{tiebreak}")
    replayed = replay_into(EFT(m, tiebreak=tiebreak, rng=seed), trace)
    assert original.same_placements(replayed)
    assert trace.schedule().same_placements(original)
