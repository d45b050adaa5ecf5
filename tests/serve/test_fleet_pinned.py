"""Pinned decisions of the serve fleet surface.

Two byte-level oracles that any restructuring of the serve tier's
dispatcher/router split must reproduce exactly:

* six rebalance assignment digests (the quick-scale runs of
  ``benchmarks/bench_rebalance.py``: hotspot shift, with and without a
  machine outage; static-overlapping, static-disjoint and adaptive
  arms), re-derived through :func:`repro.rebalance.run_rebalance`;
* seeded operation streams — submit, kill, revive, failure redispatch
  and rebalance ``apply_placement`` — on the one-shard fleet
  ``ShardRouter(ShardPlan.single(4))`` for every registry policy, each
  fingerprinted by a sha256 over the ``(tid, status, machine, start,
  reason)`` of every returned decision, the final placements and the
  canonical trace of the committed schedule.

Estimated flows are deliberately left out of the stream digest: they
are reporting, not placement.
"""

import hashlib
import random
from dataclasses import replace

import pytest

from repro.campaigns.trace import dumps, record
from repro.core.task import Task
from repro.faults import FaultSchedule
from repro.rebalance import RebalanceConfig, run_rebalance
from repro.rebalance.units import default_spec
from repro.schedulers.registry import list_schedulers
from repro.serve import ShardPlan, ShardRouter

CONFIG = RebalanceConfig(cadence=25.0, window=50.0, headroom=0.75, warmup=2.0, max_k=5)

REBALANCE_DIGESTS = {
    ("hotspot_shift", "static-overlapping"):
        "d45925cc08b75df8e9b827cb05f80d0b29572f4cedb36f46edb77000e276ce04",
    ("hotspot_shift", "static-disjoint"):
        "37ee0beb7bda71cda14107027c79a21d0f19cc268a39eba176be8e471a471a78",
    ("hotspot_shift", "adaptive"):
        "4abce010fd47703f8042a2b56afda634147325d6f20128db3f57dcf9f60d21c5",
    ("hotspot_shift_with_outage", "static-overlapping"):
        "1648e1b94bbd3635e89ebaa768408c4a5e21bbe7a3b6819065d055e25d135213",
    ("hotspot_shift_with_outage", "static-disjoint"):
        "bbc5fc2c2af5c4e449ce1c168314161e9706c845336fd2d867349db5e9e57138",
    ("hotspot_shift_with_outage", "adaptive"):
        "ea8049fcbe3378d967af80ca3bb9e60ec3443751949ed50fff187b2c5c141b4c",
}

ARMS = {
    "static-overlapping": ("overlapping", "static"),
    "static-disjoint": ("disjoint", "static"),
    "adaptive": ("overlapping", "adaptive"),
}


@pytest.mark.parametrize("section, arm", sorted(REBALANCE_DIGESTS))
def test_rebalance_digests_pinned(section, arm):
    n = 3000 if section == "hotspot_shift" else 2400
    spec = default_spec({"m": 12, "n": n, "k": 2, "s": 1.5})
    faults = None
    if section == "hotspot_shift_with_outage":
        horizon = n / spec.rate.rate(0.0)
        faults = FaultSchedule.build([(3, 0.3 * horizon, 0.5 * horizon)])
    strategy, policy = ARMS[arm]
    result = run_rebalance(
        replace(spec, strategy=strategy), policy=policy, config=CONFIG, seed=0, faults=faults
    )
    assert result.digest == REBALANCE_DIGESTS[section, arm]


M = 4
SETS = [
    frozenset(s)
    for s in ({1, 2}, {2, 3}, {3, 4}, {4, 1}, {1}, {3}, {2, 4}, {1, 2, 3, 4})
]

STREAM_DIGESTS = {
    "c3": "8c2d9f7c627f987123332823f88eb5446848b169637aedb79950ad5ca205347c",
    "eft-max": "7a46cef4139c208a24bb16dd92c962a308d625b2f64d66e52b6df99ce8dffd5d",
    "eft-min": "c50dd956bcfe16791b1003921ec0d90f309ea22a9a3f6dfbaa76d6ee67e63691",
    "eft-rand": "86894d36b8900088a77e240a4b393fae25130005185355f0e02af9a0cf10ad81",
    "least-work": "20b3ec1d0110dc5b7bcc6cc25f9f781b67f5d4a2722b31c99366484da4cc74c3",
    "lor": "8c2d9f7c627f987123332823f88eb5446848b169637aedb79950ad5ca205347c",
    "nc-setup": "52e995d26b9e0950f06cb65209d8be1733b37d9167619aae3d6e91ddd02d5a54",
    "random": "753cd671178cddab47870ac7de9b9f3e7ff113ac1150ef2d6c318044ff7fdad1",
    "round-robin": "278f7bff9807c2ec134062091796a18e7c472ec924eb041e0f7c19a39d9b9dbe",
    "speed-eft": "bad20921a5033653f1f4e3ad4a84bb8cc7d42188ab8edc73e28e83372d3d5933",
    "srpt-ps": "c50dd956bcfe16791b1003921ec0d90f309ea22a9a3f6dfbaa76d6ee67e63691",
}


def _line(decision) -> str:
    return (
        f"{decision.task.tid}:{decision.status}:{decision.machine}:"
        f"{decision.start!r}:{decision.reason}\n"
    )


def _drive(policy: str, seed: int, n_ops: int, h) -> None:
    """One seeded op stream on a fresh one-shard fleet, hashed into ``h``."""
    rng = random.Random(seed)
    router = ShardRouter(ShardPlan.single(M), scheduler=policy, seed=seed)
    clock, tid = 0.0, 0
    for _ in range(n_ops):
        kind = rng.choices(
            ["submit", "kill", "revive", "redispatch", "rebalance"], weights=[8, 2, 2, 2, 1]
        )[0]
        if kind == "submit":
            clock += rng.choice([0.0, 0.0, 0.1, 0.5])
            machines = rng.choice(SETS)
            task = Task(
                tid=tid, release=clock, proc=rng.choice([0.25, 0.5, 1.0, 2.0]),
                machines=machines, key=min(machines),
            )
            tid += 1
            decisions = [router.submit(task)]
        elif kind == "kill":
            router.kill(rng.randint(1, M))
            decisions = []
        elif kind == "revive":
            decisions = router.revive(rng.randint(1, M), clock)
        elif kind == "redispatch":
            placed = sorted(router.placements)
            victim = rng.choice(placed) if placed else None
            decisions = (
                [] if victim is None else [router.redispatch(router.task(victim), clock)]
            )
        else:
            home = rng.randint(1, M)
            new_set = frozenset(rng.sample(range(1, M + 1), rng.randint(1, M)))
            decisions = router.apply_placement(
                {home: SETS[home - 1]}, {home: new_set}, clock,
                warmup=rng.choice([0.0, 0.5]),
            )
        h.update(f"{kind};".encode())
        for decision in decisions:
            h.update(_line(decision).encode())
    for t in sorted(router.placements):
        machine, start = router.placements[t]
        h.update(f"{t}={machine}@{start!r}\n".encode())
    h.update(dumps(record(router.schedule())).encode())


def _stream_digest(policy: str) -> str:
    h = hashlib.sha256()
    for seed in (0, 1, 2):
        _drive(policy, seed, 80, h)
    return h.hexdigest()


def test_every_registry_policy_is_pinned():
    assert sorted(STREAM_DIGESTS) == sorted(p["name"] for p in list_schedulers())


@pytest.mark.parametrize("policy", sorted(STREAM_DIGESTS))
def test_op_stream_pinned(policy):
    assert _stream_digest(policy) == STREAM_DIGESTS[policy]
