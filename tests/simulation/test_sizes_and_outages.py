"""Tests for variable service sizes and a machine outage."""

import numpy as np
import pytest

from repro.core import EFT, eft_schedule
from repro.faults import FaultSchedule
from repro.simulation import Simulator, WorkloadSpec, generate_workload, sample_sizes


class TestSampleSizes:
    @pytest.mark.parametrize("dist", ["unit", "exp", "pareto", "uniform"])
    def test_mean_approximately_right(self, dist):
        rng = np.random.default_rng(0)
        sizes = sample_sizes(dist, 60_000, mean=2.0, rng=rng)
        assert sizes.mean() == pytest.approx(2.0, rel=0.1)
        assert np.all(sizes > 0)

    def test_unit_is_deterministic(self):
        rng = np.random.default_rng(0)
        assert np.all(sample_sizes("unit", 10, 1.5, rng) == 1.5)

    def test_pareto_is_heavy_tailed(self):
        rng = np.random.default_rng(1)
        pareto = sample_sizes("pareto", 50_000, 1.0, rng)
        exp = sample_sizes("exp", 50_000, 1.0, rng)
        # the 99.9th percentile of the Pareto dwarfs the exponential's
        assert np.percentile(pareto, 99.9) > np.percentile(exp, 99.9)

    def test_unknown_dist(self):
        with pytest.raises(ValueError, match="unknown size"):
            sample_sizes("weibull", 5, 1.0, np.random.default_rng(0))

    def test_invalid_mean(self):
        with pytest.raises(ValueError):
            sample_sizes("unit", 5, 0.0, np.random.default_rng(0))


class TestWorkloadSizes:
    def test_spec_threads_distribution(self):
        spec = WorkloadSpec(m=4, n=200, lam=2.0, k=2, size_dist="exp")
        inst = generate_workload(spec, rng=0)
        procs = np.array([t.proc for t in inst])
        assert procs.std() > 0  # genuinely variable

    def test_default_stays_unit(self):
        spec = WorkloadSpec(m=4, n=50, lam=2.0)
        inst = generate_workload(spec, rng=0)
        assert all(t.proc == 1.0 for t in inst)

    def test_variable_sizes_schedulable(self):
        spec = WorkloadSpec(m=6, n=300, lam=3.0, k=3, size_dist="pareto")
        inst = generate_workload(spec, rng=2)
        eft_schedule(inst, tiebreak="min").validate()


class TestOutageInjection:
    def test_outage_degrades_fmax(self):
        spec = WorkloadSpec(m=3, n=600, lam=0.8 * 3, k=2, strategy="overlapping")
        inst = generate_workload(spec, rng=5)
        base = eft_schedule(inst, tiebreak="min").max_flow
        sim = Simulator(EFT(3, tiebreak="min"), faults=FaultSchedule.build([(1, 5.0, 105.0)]))
        sim.add_instance(inst)
        degraded = sim.run()
        assert degraded.n_completed == inst.n
        assert degraded.max_flow >= base
