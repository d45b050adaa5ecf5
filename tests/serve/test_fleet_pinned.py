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
    "c3": "2a84ea533732b3df55906166d326ee522f94dbc6cd75a30620403cceddba5430",
    "eft-max": "32f7adc81d227befece7b92e52b80ac7d339be0c719ddd4e3063a3e4bb279d8a",
    "eft-min": "11ff0131c910a4a24024b61a0d2e02e303934af58688d5135bbd3bf7e7d18e72",
    "eft-rand": "a77b6e5b9f46546d574177574bb7bb4d7c932a1c4c03356a9757bc3fd9ebb8d4",
    "least-work": "781e01d2577e6b1d11bf6a05102bbf34dd5e66507c675d4b11f6bf7e87262774",
    "lor": "7e6a0d679226304ade3a6539dc736c5ccf703cd2566abbc93a389232d8c7c1bf",
    "nc-setup": "b3e23375652cace0ab8cd9d1542fef40d0ff632c04667899567ee4816480dfdf",
    "random": "94b5451bf14e81beea6cb8080dac4cbcb76d49a88efe67522b05fa5a5ca5abe1",
    "round-robin": "f53c2f331433de551d66d0b87138f3ed12448021dbc1f988cb4a3f4334d8063d",
    "speed-eft": "7e0a4c59f2ee60e1357fe40cc92851fa5dfe65911de9f0e2c1be2d0391dd000a",
    "srpt-ps": "11ff0131c910a4a24024b61a0d2e02e303934af58688d5135bbd3bf7e7d18e72",
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
                [] if victim is None else [router.redispatch(router.task(victim), clock)]
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
    "c3": "8d45642a9783971ce336ef3179b71ed28e46e60f786b833d7a69768faeb0e556",
    "eft-max": "0aea183c637e50d5aa8d9c076627a08232eccadaa663efdde1e943a62eebfd06",
    "eft-min": "622983f15d849cd8cc720daaaf398dc554e069c97e5f002446c2b9d241210579",
    "eft-rand": "b83922dfbf4664cd375c5db7ab74be94fd1adc9f6ce235968f6eca0405bd1b8b",
    "least-work": "65d19015832b93274667836f518956e4d6a34ae491a65ebd785fb0508ac26f80",
    "lor": "8d45642a9783971ce336ef3179b71ed28e46e60f786b833d7a69768faeb0e556",
    "nc-setup": "f12e260d9accea8dcd6a0aafd847fca9337e6f20b32ba6f693a16bb8432a49ea",
    "random": "a1ba6caa0b5abf8a6d640866a78aac3e9cf961258ef9b15ee94f279064114dd7",
    "round-robin": "98a6f15eee60cd5cb6892696846fce41327149a482304e0c00034b31ac8a7efd",
    "speed-eft": "bd6731cab6a883bac80e8f3fbad4ac6e92e4b4be0eaaf97625cc6d8524d59422",
    "srpt-ps": "622983f15d849cd8cc720daaaf398dc554e069c97e5f002446c2b9d241210579",
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
