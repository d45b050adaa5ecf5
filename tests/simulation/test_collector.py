"""Sampled series of :meth:`repro.obs.SimRecorder.install`."""

import pytest

from repro.core import EFT, Instance
from repro.obs import SimRecorder
from repro.simulation import Simulator


def sampled(sim, horizon, period):
    recorder = SimRecorder()
    recorder.install(sim, horizon, period)
    sim.run()
    return recorder.registry


class TestWaitingWorkSeries:
    def test_samples_profiles(self):
        inst = Instance.build(2, releases=[0, 0, 0], procs=[3, 3, 3])
        sim = Simulator(EFT(2, tiebreak="min"))
        sim.add_instance(inst)
        registry = sampled(sim, horizon=5.0, period=1.0)
        # at t=1: machine 1 has 2 left of first task + 3 queued
        assert registry.series("waiting_work[1]").values == pytest.approx([5, 4, 3, 2, 1])
        assert registry.series("waiting_work[2]").values == pytest.approx([2, 1, 0, 0, 0])

    def test_times_recorded(self):
        sim = Simulator(EFT(1))
        sim.add_tasks([])
        registry = sampled(sim, horizon=6.0, period=2.0)
        assert registry.series("waiting_work[1]").times == [2.0, 4.0, 6.0]


class TestQueueLenSeries:
    def test_counts_queued(self):
        inst = Instance.build(1, releases=[0, 0, 0], procs=[2, 2, 2])
        sim = Simulator(EFT(1))
        sim.add_instance(inst)
        registry = sampled(sim, horizon=5.0, period=1.0)
        # at t=1: one running, two queued
        assert registry.series("queue_len_total").values[0] == 2
