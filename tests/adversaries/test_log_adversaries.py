"""Tests for the logarithmic lower-bound adversaries (Theorems 3-5)."""

import math

import pytest

from repro.adversaries import FixedKAdversary, InclusiveAdversary, NestedAdversary
from repro.core import EFT, LeastWorkAssign, RandomAssign
from repro.offline import optimal_unit_fmax
from repro.psets import is_inclusive_family, is_nested_family


def eft_min(m):
    return EFT(m, tiebreak="min")


class TestInclusive(object):
    def test_family_is_inclusive(self):
        adv = InclusiveAdversary(8, p=50)
        result = adv.run(eft_min)
        family = [t.eligible(result.instance.m) for t in result.instance]
        assert is_inclusive_family(family)

    @pytest.mark.parametrize("m", [4, 8, 16])
    def test_ratio_approaches_bound(self, m):
        """Theorem 3: ratio -> floor(log2 m + 1) as p grows."""
        adv = InclusiveAdversary(m, p=10_000)
        result = adv.run(eft_min)
        bound = adv.theoretical_bound()
        assert result.ratio > bound - 0.01
        assert result.ratio <= bound  # finite p stays below the limit

    def test_non_power_of_two_m(self):
        adv = InclusiveAdversary(11, p=1000)
        assert adv.m == 8
        result = adv.run(eft_min)
        assert result.ratio > math.floor(math.log2(11) + 1) - 0.01

    def test_binds_other_immediate_dispatchers(self):
        """The bound holds for ANY immediate dispatch algorithm."""
        for factory in (
            lambda m: RandomAssign(m, rng=0),
            lambda m: LeastWorkAssign(m),
            lambda m: EFT(m, tiebreak="max"),
        ):
            adv = InclusiveAdversary(8, p=1000)
            result = adv.run(factory)
            assert result.ratio > adv.theoretical_bound() - 0.01

    def test_opt_is_exact(self):
        result = InclusiveAdversary(8, p=50).run(eft_min)
        assert result.opt_is_exact
        assert result.opt_fmax == 50

    def test_p_too_small_rejected(self):
        with pytest.raises(ValueError, match="p must exceed"):
            InclusiveAdversary(8, p=2)


class TestFixedK:
    def test_psets_have_size_k(self):
        adv = FixedKAdversary(9, 3, p=100)
        result = adv.run(eft_min)
        assert all(len(t.machines) == 3 for t in result.instance)

    def test_same_batch_sets_disjoint(self):
        adv = FixedKAdversary(9, 3, p=100)
        result = adv.run(eft_min)
        by_release: dict = {}
        for t in result.instance:
            by_release.setdefault(t.release, []).append(t.machines)
        for sets in by_release.values():
            union = set().union(*sets)
            assert len(union) == sum(len(s) for s in sets)

    @pytest.mark.parametrize("m,k", [(8, 2), (9, 3), (16, 4)])
    def test_ratio_approaches_bound(self, m, k):
        adv = FixedKAdversary(m, k, p=10_000)
        result = adv.run(eft_min)
        assert result.ratio > adv.theoretical_bound() - 0.01

    def test_rounds_m_to_power_of_k(self):
        adv = FixedKAdversary(10, 3)
        assert adv.m == 9
        assert adv.levels == 2

    def test_exact_power_detection(self):
        adv = FixedKAdversary(27, 3)
        assert adv.m == 27 and adv.levels == 3

    def test_bound_is_the_levels_stacked_at_an_exact_power(self):
        """At m' = 3**5 the float log reads 4.999...; the bound is still
        the five levels the construction stacks."""
        adv = FixedKAdversary(243, 3)
        assert adv.theoretical_bound() == adv.levels == 5

    def test_binds_random_dispatcher(self):
        adv = FixedKAdversary(8, 2, p=1000)
        result = adv.run(lambda m: RandomAssign(m, rng=3))
        assert result.ratio > adv.theoretical_bound() - 0.01

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            FixedKAdversary(8, 1)


class TestNested:
    def test_family_is_nested(self):
        adv = NestedAdversary(8)
        result = adv.run(eft_min)
        family = [t.eligible(result.instance.m) for t in result.instance]
        assert is_nested_family(family)

    @pytest.mark.parametrize("m", [4, 8, 16])
    def test_fmax_at_least_log_bound(self, m):
        """Theorem 5: Fmax >= log2(m) + 2 (so ratio >= bound with
        OPT <= 3)."""
        adv = NestedAdversary(m)
        result = adv.run(eft_min)
        assert result.fmax >= math.log2(adv.m) + 2
        assert result.ratio >= adv.theoretical_bound()

    def test_opt_at_most_three(self):
        """The paper claims the optimum keeps max-flow <= 3; check it
        exactly with the matching solver on a small m."""
        adv = NestedAdversary(4)
        result = adv.run(eft_min)
        assert optimal_unit_fmax(result.instance) <= 3

    def test_unit_tasks_only(self):
        result = NestedAdversary(4).run(eft_min)
        assert result.instance.all_unit

    def test_F_too_small_rejected(self):
        with pytest.raises(ValueError, match="F must be"):
            NestedAdversary(8, F=2)

    def test_binds_eft_max(self):
        adv = NestedAdversary(8)
        result = adv.run(lambda m: EFT(m, tiebreak="max"))
        assert result.fmax >= math.log2(adv.m) + 2
