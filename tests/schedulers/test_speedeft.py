"""Speed-EFT: the related-machines Greedy as a zoo policy."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import EFT, Instance, Task
from repro.related import GreedyRelated, SpeedCluster
from repro.schedulers import get_scheduler
from repro.simulation import Simulator
from tests.conftest import unrestricted_instances


def _greedy(speeds) -> GreedyRelated:
    return GreedyRelated(SpeedCluster(np.asarray(speeds, dtype=float)))


class TestConstruction:
    def test_default_two_tier(self):
        s = get_scheduler("speed-eft", 8)
        assert list(s.cluster.speeds) == [4.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        assert s.name == "Speed-EFT"

    def test_small_m_keeps_one_fast_machine(self):
        s = get_scheduler("speed-eft", 2)
        assert list(s.cluster.speeds) == [4.0, 1.0]

    def test_explicit_speeds(self):
        s = _greedy([1.0, 2.0, 4.0])
        assert s.service(Task(tid=0, release=0.0, proc=4.0), 3) == pytest.approx(1.0)

    def test_cluster_object(self):
        s = GreedyRelated(SpeedCluster.geometric(4))
        assert s.cluster.speed(4) == pytest.approx(8.0)

    def test_m_mismatch_rejected(self):
        inst = Instance(m=3, tasks=(Task(tid=0, release=0.0, proc=1.0),))
        with pytest.raises(ValueError, match="m="):
            _greedy([1.0, 2.0]).run(inst)


class TestPlacement:
    def test_fast_machine_wins_finish_time(self):
        # work 4: machine 1 (speed 4) finishes at 1, the others at 4.
        s = get_scheduler("speed-eft", 4)
        machine, ties = s.choose(Task(tid=0, release=0.0, proc=4.0))
        assert machine == 1
        assert ties == frozenset({1})

    def test_loaded_fast_machine_loses_to_idle_slow_one(self):
        s = _greedy([4.0, 1.0])
        s.run(Instance(m=2, tasks=(Task(tid=0, release=0.0, proc=40.0),)))
        # fast machine busy until 10; a small task at 1 finishes at
        # 10 + 0.25 there vs 1 + 1 on the idle slow machine
        machine, _ = s.choose(Task(tid=1, release=1.0, proc=1.0))
        assert machine == 2

    @given(unrestricted_instances(max_m=4, max_n=20, unit=False))
    @settings(max_examples=30, deadline=None)
    def test_unit_speeds_coincide_with_eft_min(self, inst):
        speed = GreedyRelated(SpeedCluster.identical(inst.m)).run(inst)
        eft = EFT(inst.m, tiebreak="min").run(inst)
        assert speed.same_placements(eft, tol=0.0)


class TestEngineIntegration:
    def test_simulated_flows_use_speed_scaled_service(self):
        inst = Instance(m=2, tasks=(Task(tid=0, release=0.0, proc=4.0),))
        sim = Simulator(_greedy([4.0, 1.0]))
        sim.add_instance(inst)
        res = sim.run()
        assert res.max_flow == pytest.approx(1.0)  # 4 work / speed 4
        assert res.makespan == pytest.approx(1.0)

    def test_two_tier_beats_speed_blind_order(self):
        """On a two-tier fleet the speed-aware policy drains a burst
        faster than round-robin-style speed-blind spreading would: all
        work lands where it finishes earliest."""
        tasks = tuple(
            Task(tid=i, release=0.0, proc=4.0) for i in range(4)
        )
        sim = Simulator(_greedy([4.0, 1.0]))
        sim.add_instance(Instance(m=2, tasks=tasks))
        res = sim.run()
        # speeds 4 and 1: greedy puts three on the fast machine
        # (finishes 1, 2, 3) and one on the slow (finishes 4)
        assert res.makespan == pytest.approx(4.0)
        assert res.max_flow == pytest.approx(4.0)

    def test_registry_flags(self):
        s = get_scheduler("speed-eft", 8)
        assert s.preemptive is False
        assert s.clairvoyant is True
        assert type(s.cluster) is SpeedCluster
        assert np.count_nonzero(s.cluster.speeds == 4.0) == 2
