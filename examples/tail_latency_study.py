#!/usr/bin/env python
"""Tail-latency study: clairvoyance, heavy tails, and failures.

Goes beyond the paper's unit-task experiments using the extension
subsystems:

1. variable request sizes (exponential and heavy-tailed Pareto);
2. observable replica-selection policies (least-outstanding, C3-like)
   against the clairvoyant EFT baseline;
3. a machine outage mid-run (machine 5 down over ``[10, 70)``),
   comparing how the two replication schemes absorb it;
4. the Erlang-C analytic prediction of the disjoint strategy's
   capacity wall.
"""

import numpy as np

from repro.analysis import predict_disjoint_curve, stability_limit
from repro.core import EFT, eft_schedule
from repro.core.nonclairvoyant import C3Like, LeastOutstanding
from repro.faults import FaultSchedule
from repro.simulation import (
    Simulator,
    WorkloadSpec,
    generate_workload,
    shuffled_case,
    worst_case,
)

def clairvoyance_gap() -> None:
    m, k = 15, 3
    pop = shuffled_case(m, s=1.0, rng=7)
    print("clairvoyance gap at 40% load (median Fmax of 3 runs):")
    for dist in ("unit", "exp", "pareto"):
        eft_v, lor_v, c3_v = [], [], []
        for rep in range(3):
            spec = WorkloadSpec(m=m, n=3000, lam=0.4 * m, k=k, size_dist=dist)
            inst = generate_workload(spec, rng=rep, popularity=pop)
            eft_v.append(eft_schedule(inst, tiebreak="min").max_flow)
            lor_v.append(LeastOutstanding(m).run(inst).max_flow)
            c3_v.append(C3Like(m).run(inst).max_flow)
        print(f"  {dist:7s}: EFT {np.median(eft_v):6.2f}   "
              f"LOR {np.median(lor_v):6.2f}   C3 {np.median(c3_v):6.2f}")


def outage_comparison() -> None:
    m, k = 15, 3
    print("\n60-unit outage on machine 5 at 60% load:")
    for strategy in ("overlapping", "disjoint"):
        spec = WorkloadSpec(m=m, n=3000, lam=0.6 * m, k=k, strategy=strategy)
        inst = generate_workload(spec, rng=1)
        base = eft_schedule(inst, tiebreak="min").max_flow
        sim = Simulator(EFT(m, tiebreak="min"), faults=FaultSchedule.build([(5, 10.0, 70.0)]))
        sim.add_instance(inst)
        fmax = sim.run().max_flow
        print(f"  {strategy:12s}: baseline Fmax {base:5.2f} -> with outage {fmax:5.2f}")


def capacity_prediction() -> None:
    m, k = 15, 3
    pop = worst_case(m, 1.0)
    limit = 100 * stability_limit(pop, k) / m
    print(f"\nErlang-C predicted disjoint capacity wall: {limit:.1f}% "
          f"(the Figure 11 red line)")
    pred = predict_disjoint_curve(pop, k, [20, 30, int(limit) - 2], n=3000)
    for load, fmax in pred.items():
        print(f"  predicted Fmax at {load:4.0f}% load: {fmax:6.2f}")


if __name__ == "__main__":
    clairvoyance_gap()
    outage_comparison()
    capacity_prediction()
