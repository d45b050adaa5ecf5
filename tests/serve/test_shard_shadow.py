"""Sharded shadow mode vs the golden fixtures: byte-identity per shard.

Theorem 6's composition argument says per-shard EFT over a disjoint
partition makes exactly the fleet-wide EFT decisions.  These tests pin
that at the byte level: the merged sharded trace must equal the
checked-in golden file byte-for-byte, and each shard's record lines
must equal the golden's lines filtered to that shard's tasks.
"""

import pytest

from repro.campaigns.goldens import GOLDEN_CASES, golden_path
from repro.campaigns.trace import dumps
from repro.serve import ShardPlan
from tests.oracles import GoldenMismatch, check_shard_shadow_golden, shard_shadow_traces


@pytest.mark.parametrize("n_shards", [2, 3])
def test_disjoint_golden_byte_identical_sharded(n_shards):
    merged, per_shard = check_shard_shadow_golden("eft-min-m6-disjoint", n_shards)
    assert merged.n == 36
    assert len(per_shard) == n_shards
    assert sum(t.n for t in per_shard.values()) == merged.n


def test_single_shard_reduces_to_plain_shadow():
    merged, per_shard = check_shard_shadow_golden("eft-min-m4", 1)
    assert list(per_shard) == [0]
    assert dumps(merged) == golden_path("eft-min-m4").read_text()


def test_overlapping_family_rejects_multi_shard():
    # Ring replication wraps the seam; no cross-talk-free cut exists.
    with pytest.raises(ValueError, match="ring seam"):
        check_shard_shadow_golden("eft-min-m4", 2)


def test_randomised_scheduler_rejected():
    # Per-shard RNG streams cannot reproduce the global draw sequence.
    with pytest.raises(ValueError, match="deterministic"):
        check_shard_shadow_golden("eft-rand-m5", 2)


def test_shard_traces_carry_shard_meta():
    case = GOLDEN_CASES["eft-min-m6-disjoint"]
    instance = case.make_instance()
    plan = ShardPlan.for_family(instance.processing_sets(), 6, 2)
    merged, per_shard = shard_shadow_traces(instance, plan, "eft-min")
    for sid, trace in per_shard.items():
        assert trace.meta["shard"] == sid


def test_divergence_is_detected(monkeypatch):
    import tests.oracles as shadow_mod

    original = shadow_mod.shadow_replay

    def perturbed(instance, scheduler, plan=None, seed=0):
        router, decisions = original(instance, scheduler, plan=plan, seed=seed)
        books = router.dispatchers[1].placements
        tid = next(iter(books))
        machine, start = books[tid]
        books[tid] = (machine, start + 0.125)
        return router, decisions

    monkeypatch.setattr(shadow_mod, "shadow_replay", perturbed)
    with pytest.raises(GoldenMismatch):
        check_shard_shadow_golden("eft-min-m6-disjoint", 2)
