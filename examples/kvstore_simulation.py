#!/usr/bin/env python
"""Key-value store scenario: replication strategy vs tail latency.

Models a 15-machine cluster serving Zipf-popular keys (the paper's
Shuffled case, s = 1) at increasing load, replicated with either
overlapping (Dynamo-style ring) or disjoint intervals of size k = 3,
and reports the max response time (Fmax) of EFT scheduling — a
condensed Figure 11.

Also demonstrates the full key-granularity model: a consistent-hashing
ring placing 5 000 keys, whose induced machine popularity feeds the
same pipeline.
"""

import numpy as np

from repro.core import eft_schedule
from repro.maxload import max_load_lp
from repro.simulation import KeyValueStore, WorkloadSpec, generate_workload, shuffled_case

def machine_level_experiment() -> None:
    m, k, n = 15, 3, 5000
    pop = shuffled_case(m, s=1.0, rng=7)
    print(f"machine popularity (s=1, shuffled): {np.round(pop.weights, 3)}")
    for strategy in ("overlapping", "disjoint"):
        lp = max_load_lp(pop, strategy, k)
        print(f"\n{strategy}: theoretical max load = {lp.load_percent:.0f}%")
        for load_pct in (20, 35, 50):
            spec = WorkloadSpec(m=m, n=n, lam=load_pct / 100 * m, k=k, strategy=strategy)
            fmaxes = []
            for rep in range(5):
                inst = generate_workload(spec, rng=100 + rep, popularity=pop)
                fmaxes.append(eft_schedule(inst, tiebreak="min").max_flow)
            print(f"  load {load_pct:3d}%: median Fmax = {np.median(fmaxes):.2f}")


def key_level_experiment() -> None:
    print("\n--- key-granularity model (consistent-hashing ring) ---")
    store = KeyValueStore.build(m=15, n_keys=5000, k=3, strategy="overlapping", key_zipf_s=1.0)
    pop = store.machine_popularity()
    print(f"induced machine popularity: min={pop.min():.4f} max={pop.max():.4f}")
    inst = store.request_stream(lam=0.35 * 15, n=5000, rng=11)
    sched = eft_schedule(inst, tiebreak="min")
    sched.validate()
    print(f"5000 requests at 35% load: Fmax = {sched.max_flow:.2f}, "
          f"mean flow = {sched.mean_flow:.2f}")


if __name__ == "__main__":
    machine_level_experiment()
    key_level_experiment()
