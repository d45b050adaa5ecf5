"""Tests for the closed-form bounds (Table 2) and the Table 1 registry."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.theory import (
    TABLE1,
    eft_disjoint_ratio,
    eft_interval_lower_bound,
    fifo_competitive_ratio,
    fixed_k_lower_bound,
    inclusive_lower_bound,
    interval_any_lower_bound,
    nested_lower_bound,
)
from tests.conftest import examples


def floor_log(m: int, base: int) -> int:
    """The largest ``e`` with ``base**e <= m``, by counting."""
    e = 0
    while base ** (e + 1) <= m:
        e += 1
    return e


class TestClosedForms:
    def test_fifo_ratio(self):
        assert fifo_competitive_ratio(1) == 1.0  # optimal on one machine
        assert fifo_competitive_ratio(2) == 2.0
        assert fifo_competitive_ratio(15) == pytest.approx(3 - 2 / 15)

    def test_eft_disjoint(self):
        assert eft_disjoint_ratio(3) == pytest.approx(3 - 2 / 3)
        assert eft_disjoint_ratio(1) == 1.0

    def test_inclusive(self):
        assert inclusive_lower_bound(16) == 5
        assert inclusive_lower_bound(15) == math.floor(math.log2(15) + 1)

    def test_fixed_k(self):
        assert fixed_k_lower_bound(16, 2) == 4
        assert fixed_k_lower_bound(27, 3) == 3

    def test_nested(self):
        assert nested_lower_bound(16) == pytest.approx(2.0)

    def test_interval_any(self):
        assert interval_any_lower_bound() == 2.0

    def test_eft_interval(self):
        assert eft_interval_lower_bound(15, 3) == 13
        with pytest.raises(ValueError):
            eft_interval_lower_bound(5, 5)
        with pytest.raises(ValueError):
            eft_interval_lower_bound(5, 1)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fifo_competitive_ratio(0)
        with pytest.raises(ValueError):
            fixed_k_lower_bound(8, 1)

    @given(k=st.integers(2, 20), e=st.integers(1, 30))
    @example(k=3, e=5)  # math.log(243, 3) is 4.999999999999999
    @example(k=10, e=3)  # and math.log(1000, 10) is 2.9999999999999996
    @settings(max_examples=examples(200), deadline=None)
    def test_log_bounds_exact_around_powers(self, k, e):
        """At an exact power ``k**e`` and one below it, the three log
        bounds read the integer truth, however large ``m`` is."""
        for m, levels in ((k**e, e), (k**e - 1, e - 1)):
            assert fixed_k_lower_bound(m, k) == levels
            assert inclusive_lower_bound(m) == floor_log(m, 2) + 1
            assert nested_lower_bound(m) == (floor_log(m, 2) + 2) / 3


class TestRegistries:
    def test_table1_nonempty_rows(self):
        assert len(TABLE1) >= 10
        for e in TABLE1:
            assert e.kind in ("upper", "lower")
            assert e.reference

    def test_ordering_consistency(self):
        """Bounds must be internally consistent at m=16, k=3: the EFT
        interval lower bound dwarfs every log bound."""
        m, k = 16, 3
        assert eft_interval_lower_bound(m, k) > inclusive_lower_bound(m)
        assert eft_interval_lower_bound(m, k) > nested_lower_bound(m)
        assert inclusive_lower_bound(m) >= nested_lower_bound(m)
