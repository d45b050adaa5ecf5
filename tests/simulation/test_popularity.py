"""Unit tests for the Zipf popularity model (Section 7.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import (
    MachinePopularity,
    StaticPopularity,
    WorkloadSpec,
    generalized_harmonic,
    shuffled_case,
    uniform_case,
    worst_case,
    zipf_weights,
)


class TestZipfWeights:
    def test_formula(self):
        """P(E_j) = 1 / (j^s * H_{m,s})."""
        m, s = 6, 1.5
        w = zipf_weights(m, s)
        h = generalized_harmonic(m, s)
        for j in range(1, m + 1):
            assert w[j - 1] == pytest.approx(1.0 / (j**s * h))

    def test_s_zero_uniform(self):
        assert np.allclose(zipf_weights(5, 0.0), 0.2)

    def test_monotone_decreasing(self):
        w = zipf_weights(10, 1.0)
        assert np.all(np.diff(w) < 0)

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            zipf_weights(5, -0.5)

    @given(st.integers(1, 50), st.floats(0, 5, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_sums_to_one(self, m, s):
        assert zipf_weights(m, s).sum() == pytest.approx(1.0)

    def test_bias_grows_with_s(self):
        """Larger s concentrates more mass on machine 1."""
        tops = [zipf_weights(10, s)[0] for s in (0.0, 0.5, 1.0, 2.0)]
        assert tops == sorted(tops)


class TestCases:
    def test_uniform(self):
        pop = uniform_case(6)
        assert pop.case == "uniform"
        assert np.allclose(pop.weights, 1 / 6)

    def test_worst_sorted(self):
        pop = worst_case(6, 1.0)
        assert np.all(np.diff(pop.weights) < 0)

    def test_shuffled_is_permutation(self):
        pop = shuffled_case(6, 1.0, rng=0)
        assert sorted(pop.weights) == pytest.approx(sorted(worst_case(6, 1.0).weights))

    def test_shuffled_deterministic_by_seed(self):
        a = shuffled_case(6, 1.0, rng=5)
        b = shuffled_case(6, 1.0, rng=5)
        assert np.allclose(a.weights, b.weights)

    def test_figure8_worst_values(self):
        """Figure 8b: for m=6, s=1, lambda=m the first machine's load
        is ~2.449."""
        loads = worst_case(6, 1.0).machine_loads(6.0)
        assert loads[0] == pytest.approx(2.449, abs=1e-3)
        assert loads[-1] == pytest.approx(0.408, abs=1e-3)


class TestMachinePopularity:
    def test_validation(self):
        with pytest.raises(ValueError):
            MachinePopularity(weights=np.array([0.5, 0.4]), case="x", s=0)
        with pytest.raises(ValueError):
            MachinePopularity(weights=np.array([-0.5, 1.5]), case="x", s=0)

    def test_max_load_unreplicated(self):
        """lambda <= 1 / max_j P(E_j) (Section 7.2)."""
        pop = worst_case(4, 1.0)
        assert pop.max_load_unreplicated() == pytest.approx(1.0 / pop.weights.max())

    def test_sample_homes_distribution(self):
        pop = worst_case(4, 2.0)
        rng = np.random.default_rng(0)
        homes = pop.sample_homes(20_000, rng)
        freq = np.bincount(homes, minlength=5)[1:] / 20_000
        assert np.allclose(freq, pop.weights, atol=0.02)

    def test_sample_range(self):
        pop = uniform_case(3)
        homes = pop.sample_homes(100, np.random.default_rng(1))
        assert set(np.unique(homes)) <= {1, 2, 3}

    def test_value_equality_and_hash(self):
        """Profiles compare and hash by value (weights bytes, case, s),
        and so do the static profiles and workload specs carrying them."""
        assert worst_case(6, 1.0) == worst_case(6, 1.0)
        assert hash(worst_case(6, 1.0)) == hash(worst_case(6, 1.0))
        a, b = StaticPopularity(worst_case(6, 1.0)), StaticPopularity(worst_case(6, 1.0))
        assert a == b and hash(a) == hash(b)
        spec_a = WorkloadSpec(m=6, n=10, lam=3.0, popularity_profile=a)
        spec_b = WorkloadSpec(m=6, n=10, lam=3.0, popularity_profile=b)
        assert spec_a == spec_b and hash(spec_a) == hash(spec_b)
        assert len({spec_a, spec_b}) == 1

    def test_different_weights_compare_unequal(self):
        assert worst_case(6, 1.0) != worst_case(6, 1.5)
        assert worst_case(6, 1.0) != shuffled_case(6, 1.0, rng=0)
        assert worst_case(6, 0.0) != uniform_case(6)  # same weights, other case
        same_case = MachinePopularity(weights=worst_case(6, 1.0).weights[::-1], case="worst", s=1.0)
        assert worst_case(6, 1.0) != same_case
        a, b = StaticPopularity(worst_case(6, 1.0)), StaticPopularity(worst_case(6, 2.0))
        assert a != b
        spec = WorkloadSpec(m=6, n=10, lam=3.0, popularity_profile=a)
        assert spec != WorkloadSpec(m=6, n=10, lam=3.0, popularity_profile=b)
        assert worst_case(6, 1.0) != "worst"
