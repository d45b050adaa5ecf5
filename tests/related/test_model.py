"""Tests for the related-machines substrate."""

import numpy as np
import pytest

from repro.related import SpeedCluster


class TestSpeedCluster:
    def test_basic(self):
        c = SpeedCluster(np.array([1.0, 2.0, 4.0]))
        assert c.m == 3
        assert c.speed(2) == 2.0
        assert c.exec_time(8.0, 3) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SpeedCluster(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            SpeedCluster(np.array([]))

    def test_machine_bounds(self):
        c = SpeedCluster.identical(2)
        with pytest.raises(ValueError):
            c.speed(3)

    def test_identical(self):
        c = SpeedCluster.identical(4)
        assert np.allclose(c.speeds, 1.0)

    def test_geometric(self):
        c = SpeedCluster.geometric(4, ratio=2.0)
        assert c.speeds.tolist() == [1.0, 2.0, 4.0, 8.0]

    def test_two_tier(self):
        c = SpeedCluster.two_tier(5, fast=2, speedup=3.0)
        assert c.speeds.tolist() == [3.0, 3.0, 1.0, 1.0, 1.0]
        with pytest.raises(ValueError):
            SpeedCluster.two_tier(3, fast=4)


class TestStats:
    def test_utilization(self):
        from repro.core import Instance
        from repro.related import GreedyRelated

        cluster = SpeedCluster.identical(2)
        inst = Instance.build(2, releases=[0, 0], procs=[2.0, 2.0])
        sched = GreedyRelated(cluster).run(inst)
        capacity = cluster.speeds.sum() * sched.makespan
        assert sched.machine_loads().sum() / capacity == pytest.approx(1.0)
        assert sched.max_flow == 2.0
