"""Tests for Theorem 6's composition, run where the product runs it:
``ShardRouter`` over a plan that cuts only between disjoint groups."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Instance, eft_schedule
from repro.offline import optimal_unit_fmax
from repro.psets import DisjointIntervals
from repro.serve import ShardPlan
from tests.oracles import shadow_replay


def disjoint_instance(m, k, n, seed):
    """``n`` unit tasks whose sets are the ``m // k`` disjoint groups."""
    rng = np.random.default_rng(seed)
    strat = DisjointIntervals(m, k)
    homes = rng.integers(1, m + 1, n)
    return Instance.build(
        m,
        releases=sorted(float(x) for x in rng.integers(0, max(2, n // m), n)),
        procs=1.0,
        machine_sets=[strat.replicas(int(h)) for h in homes],
    )


class TestComposition:
    def test_groups_discovered(self):
        """The plan read off a disjoint family cuts only between its
        groups, so every set is local to one shard."""
        inst = disjoint_instance(6, 3, 12, 0)
        family = inst.processing_sets()
        plan = ShardPlan.for_family(family, 6, 2)
        assert plan.intervals == ((1, 3), (4, 6))
        assert plan.is_disjoint_for(family)

    def test_rejects_overlapping_sets(self):
        """Overlapping sets leave no cut that keeps each set in one
        shard, so no multi-shard composition exists."""
        with pytest.raises(ValueError, match="admits only 1 shard"):
            ShardPlan.for_family([{1, 2}, {2, 3}], 3, 2)

    @given(st.integers(2, 4), st.integers(2, 3), st.integers(5, 25), st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_composed_eft_equals_plain_eft(self, k, groups, n, seed):
        """Theorem 6 on the router: per-shard EFT-Min over any cut
        between the disjoint groups makes exactly the fleet-wide EFT-Min
        decisions, for every shard count from 1 to one shard per group."""
        m = groups * k
        inst = disjoint_instance(m, k, n, seed)
        plain = eft_schedule(inst, tiebreak="min")
        for n_shards in range(1, m // k + 1):
            plan = ShardPlan.for_family(inst.processing_sets(), m, n_shards)
            router, _ = shadow_replay(inst, "eft-min", plan=plan)
            assert router.schedule().same_placements(plain)

    @given(st.integers(2, 3), st.integers(5, 18), st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_corollary1_through_composition(self, k, n, seed):
        """The two-shard router inherits the 3 - 2/k guarantee."""
        m = 2 * k
        inst = disjoint_instance(m, k, n, seed)
        plan = ShardPlan.for_family(inst.processing_sets(), m, 2)
        router, _ = shadow_replay(inst, "eft-min", plan=plan)
        opt = optimal_unit_fmax(inst)
        assert router.schedule().max_flow <= (3 - 2 / k) * opt + 1e-9

    def test_composition_with_other_inner(self):
        """The construction is generic: run the round-robin baseline
        per shard; every task stays in its own set and shard."""
        inst = disjoint_instance(6, 3, 12, 3)
        plan = ShardPlan.for_family(inst.processing_sets(), 6, 2)
        router, decisions = shadow_replay(inst, "round-robin", plan=plan)
        router.schedule().validate()
        for task, decision in zip(inst, decisions):
            assert decision.machine in task.machines
            assert task.machines <= plan.machines(plan.shard_of(decision.machine))
