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
  canonical trace of the committed schedule;
* seeded two-shard operation streams on ``ShardPlan.even(4, 2)``, whose
  straddling sets ({2, 3}, {4, 1}) cross the shard cut — the same ops
  plus ``detach_shard``/``reattach_shard`` — for every registry policy,
  fingerprinted over each decision's ``(tid, status, machine, start,
  est_flow, reason, shard, handoff)``, the merged placements and the
  merged schedule trace.

Estimated flows are left out of the one-shard stream digest (they are
reporting, not placement); the two-shard digest carries them with the
routing fields, so the whole decision record is pinned there.
"""

import hashlib
import random
from dataclasses import replace

import pytest

from repro.campaigns.trace import dumps, record
from repro.core.task import Task
from repro.faults import FaultSchedule
from repro.rebalance import RebalanceConfig, run_rebalance
from repro.rebalance.harness import default_spec
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
        horizon = n / spec.lam
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
    "c3": "8fc776a9bc48e527b4d2d528a02a9d0c5aa364e4b57bdebab19a3cdf239e7e75",
    "eft-max": "1e63c30bf8b63cb6ea1161d1d62bdd5c1ec5f8784e310eef139fa7a2b5b40d46",
    "eft-min": "c1c0e93879524f483486de980628cc0008125945dc0558b630aefdca93f0883c",
    "eft-rand": "30b7d650eed08c5ff72f1704a89c6e6ea0d65f0d62938321a90527dce5390fb9",
    "least-work": "f786cee41bb3b9e651b0cf97c00e558399d7a03c7b68c90b4e0a151999f0ebff",
    "lor": "4bf4c6b6b5ffd5dcf0a8b845652b6d5af1a289be746e5c6d5022115ad6bcfbf3",
    "nc-setup": "7fd9ad158fc80250d62a13faa09d63e07a6d0207ff58afa79736bcc17679bcdc",
    "random": "d91135d593600c67e2882d1f36564dcd99794e5085d372a7dc8a60483ead4fbc",
    "round-robin": "579a60eefc2f02b936b8e80022e46f86d19449931edc8a21e74701f96e56e76c",
    "speed-eft": "a6e835bad451c3b1d5c3dce785403fefe4c6581495d226bafce2cd9d1b58e11f",
    "srpt-ps": "c1c0e93879524f483486de980628cc0008125945dc0558b630aefdca93f0883c",
}


def _line(decision) -> str:
    return (
        f"{decision.task.tid}:{decision.status}:{decision.machine}:"
        f"{decision.start!r}:{decision.reason}\n"
    )


KINDS = ["submit", "kill", "revive", "redispatch", "rebalance", "detach", "reattach"]


def _drive(policy: str, seed: int, n_ops: int, h, plan: ShardPlan, weights, line) -> None:
    """One seeded op stream on a fresh fleet over ``plan``, each op's
    kind drawn from the first ``len(weights)`` :data:`KINDS`; every
    returned decision is hashed into ``h`` as ``line`` formats it."""
    rng = random.Random(seed)
    router = ShardRouter(plan, scheduler=policy, seed=seed)
    clock, tid = 0.0, 0
    for _ in range(n_ops):
        kind = rng.choices(KINDS[: len(weights)], weights=weights)[0]
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
                [] if victim is None else router.redispatch([router.task(victim)], clock)
            )
        elif kind == "rebalance":
            home = rng.randint(1, M)
            new_set = frozenset(rng.sample(range(1, M + 1), rng.randint(1, M)))
            decisions = router.apply_placement(
                {home: SETS[home - 1]}, {home: new_set}, clock,
                warmup=rng.choice([0.0, 0.5]),
            )
        elif kind == "detach":
            router.detach_shard(rng.randrange(plan.n_shards))
            decisions = []
        else:
            decisions = router.reattach_shard(rng.randrange(plan.n_shards), now=clock)
        h.update(f"{kind};".encode())
        for decision in decisions:
            h.update(line(decision).encode())
    for t in sorted(router.placements):
        machine, start = router.placements[t]
        h.update(f"{t}={machine}@{start!r}\n".encode())
    h.update(dumps(record(router.schedule())).encode())


def _stream_digest(
    policy: str, plan: ShardPlan = ShardPlan.single(M), n_ops: int = 80,
    weights=(8, 2, 2, 2, 1), line=_line,
) -> str:
    h = hashlib.sha256()
    for seed in (0, 1, 2):
        _drive(policy, seed, n_ops, h, plan, weights, line)
    return h.hexdigest()


def test_every_registry_policy_is_pinned():
    assert sorted(STREAM_DIGESTS) == sorted(p["name"] for p in list_schedulers())


@pytest.mark.parametrize("policy", sorted(STREAM_DIGESTS))
def test_op_stream_pinned(policy):
    assert _stream_digest(policy) == STREAM_DIGESTS[policy]


PLAN2 = ShardPlan.even(M, 2)

SHARDED_STREAM_DIGESTS = {
    "c3": "208d62395c197f47f579eddd556dbdcd3aef3d8c40f8d63c60fbcd5da353cd23",
    "eft-max": "727fe48c97154d07554f84db6d3683ad80e51255f11e16986a4c194efc729b42",
    "eft-min": "1f44a213f97692e9bf9341b9f81d2c881cb52ec90a7697ffe285e9a370043feb",
    "eft-rand": "2745593d73d7329bac0b8b5527be8c3ab9432c4bab8385a10823a3f8fb8bebf0",
    "least-work": "5150d02b34fc01a6de55620cb9db39ab08376fc7d9a7174d83cb443755f001a5",
    "lor": "208d62395c197f47f579eddd556dbdcd3aef3d8c40f8d63c60fbcd5da353cd23",
    "nc-setup": "e64966fcd1cd12d35c44be856e698b64f6f583116da254754f9409a208e58779",
    "random": "8d9a2c97181070daa84050a3e0ccf3527762e8c82eacf944881a03c5144d66d9",
    "round-robin": "5a925cd27cd03461536db5c096e41c080112732e76d49e65002a5b293dcb5f13",
    "speed-eft": "2300f98566b19b2fd6980b394837950d2058d5ebd0926e656844f7de0893ec97",
    "srpt-ps": "1f44a213f97692e9bf9341b9f81d2c881cb52ec90a7697ffe285e9a370043feb",
}


def _sharded_line(decision) -> str:
    return (
        f"{decision.task.tid}:{decision.status}:{decision.machine}:"
        f"{decision.start!r}:{decision.est_flow!r}:{decision.reason}:"
        f"{decision.shard}:{decision.handoff}\n"
    )


def test_every_registry_policy_is_pinned_on_two_shards():
    assert sorted(SHARDED_STREAM_DIGESTS) == sorted(p["name"] for p in list_schedulers())


@pytest.mark.parametrize("policy", sorted(SHARDED_STREAM_DIGESTS))
def test_sharded_op_stream_pinned(policy):
    digest = _stream_digest(policy, PLAN2, 100, (10, 2, 2, 2, 1, 1, 1), _sharded_line)
    assert digest == SHARDED_STREAM_DIGESTS[policy]
