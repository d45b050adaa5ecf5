#!/usr/bin/env python
"""Preemption study: what does the non-preemptive model cost?

The paper's model forbids preemption (requests are atomic).  Table 1
recalls that preemption changes the achievable ratios; this example
quantifies the gap on concrete workloads with the extension solvers:

1. exact preemptive vs non-preemptive offline optima on small random
   instances (the price of atomicity);
2. online preemptive policies — FIFO priorities (never preempt in
   practice) vs SRPT (aggressive) — on a bursty stream, showing SRPT's
   classic trade: better mean flow, worse max flow.
"""

import numpy as np

from repro.core import Instance
from repro.offline import (
    PreemptiveEngine,
    fifo_priority,
    optimal_fmax,
    optimal_preemptive_fmax,
    srpt_priority,
)

def offline_gap() -> None:
    rng = np.random.default_rng(4)
    print("offline optima on random instances (m=2, n=7):")
    print("  preemptive | non-preemptive | gap")
    for _ in range(6):
        releases = np.sort(rng.uniform(0, 4, size=7))
        procs = rng.uniform(0.3, 3.0, size=7)
        inst = Instance.build(2, releases=releases, procs=procs)
        pre = optimal_preemptive_fmax(inst)
        non = optimal_fmax(inst)
        print(f"  {pre:10.3f} | {non:14.3f} | {non / pre:5.3f}x")


def online_policies() -> None:
    rng = np.random.default_rng(11)
    n = 60
    releases = np.sort(rng.uniform(0, 25, size=n))
    procs = rng.exponential(scale=1.0, size=n) + 0.1
    inst = Instance.build(3, releases=releases, procs=procs)

    fifo = PreemptiveEngine(fifo_priority).run(inst)
    srpt = PreemptiveEngine(srpt_priority).run(inst)
    print("\nonline preemptive policies on a bursty stream (m=3, n=60):")
    print(f"  FIFO priorities: Fmax={fifo.max_flow:6.2f}  mean={fifo.mean_flow:5.2f}  "
          f"preemptions={fifo.preemptions}")
    print(f"  SRPT           : Fmax={srpt.max_flow:6.2f}  mean={srpt.mean_flow:5.2f}  "
          f"preemptions={srpt.preemptions}")
    print("  (SRPT trades tail latency for mean latency — the paper's "
        "objective is the tail, hence FIFO/EFT)")


if __name__ == "__main__":
    offline_gap()
    online_policies()
