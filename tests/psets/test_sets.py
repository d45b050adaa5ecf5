"""Unit tests for interval primitives."""

import pytest

from repro.psets import (
    interval,
    is_circular_interval,
    is_contiguous,
    ring_interval,
)


class TestInterval:
    def test_basic(self):
        assert interval(2, 4) == {2, 3, 4}

    def test_singleton(self):
        assert interval(3, 3) == {3}

    def test_invalid(self):
        with pytest.raises(ValueError):
            interval(3, 2)
        with pytest.raises(ValueError):
            interval(0, 2)
        with pytest.raises(ValueError):
            interval(1, 5, m=4)


class TestRingInterval:
    def test_no_wrap(self):
        assert ring_interval(2, 3, 6) == {2, 3, 4}

    def test_wraps(self):
        assert ring_interval(5, 3, 6) == {5, 6, 1}

    def test_full_ring(self):
        assert ring_interval(4, 6, 6) == {1, 2, 3, 4, 5, 6}

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            ring_interval(0, 2, 6)
        with pytest.raises(ValueError):
            ring_interval(1, 7, 6)

    def test_matches_paper_fig9(self):
        """Figure 9: data homed on M3 with k=3 overlapping replicates
        to {M3, M4, M5}."""
        assert ring_interval(3, 3, 6) == {3, 4, 5}


class TestPredicates:
    def test_contiguous(self):
        assert is_contiguous({2, 3, 4})
        assert not is_contiguous({1, 3})
        assert not is_contiguous(set())

    def test_circular(self):
        assert is_circular_interval({5, 6, 1}, 6)
        assert is_circular_interval({2, 3}, 6)
        assert not is_circular_interval({1, 3}, 6)

    def test_circular_bounds_check(self):
        with pytest.raises(ValueError):
            is_circular_interval({7}, 6)

    def test_interval_bounds(self):
        s = {2, 3, 4}
        assert is_contiguous(s) and (min(s), max(s)) == (2, 4)
        assert not is_contiguous({1, 3})
