"""Unit tests for admission control: SLO shedding and bounded queues."""

import numpy as np
import pytest

from repro.core import EFT, Instance, Task
from repro.schedulers import get_scheduler
from repro.serve import (
    SHED,
    SHED_QUEUE_FULL,
    SHED_SLO,
    AdmissionController,
    Dispatcher,
    estimated_flow,
)
from repro.simulation.engine import Simulator
from repro.simulation.workload import WorkloadSpec, generate_workload


def _instance(seed: int, m: int = 5, n: int = 80, lam: float = 6.0) -> Instance:
    spec = WorkloadSpec(m=m, n=n, lam=lam, k=2, strategy="overlapping", case="uniform")
    return generate_workload(spec, rng=np.random.default_rng(seed))


class TestController:
    def test_disabled_controller(self):
        ctrl = AdmissionController()
        assert not ctrl.enabled
        # A Dispatcher drops a disabled controller entirely.
        assert Dispatcher(EFT(2, tiebreak="min"), admission=ctrl).admission is None

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            AdmissionController(slo=0.0)
        with pytest.raises(ValueError):
            AdmissionController(max_queue_depth=0)

    def test_slo_sheds_exactly_above_threshold(self):
        """m=1, unit tasks at t=0: flows are 1, 2, 3, ... — an SLO of
        2 admits the first two and sheds the rest."""
        d = Dispatcher(EFT(1, tiebreak="min"), admission=AdmissionController(slo=2.0))
        decisions = [d.submit(Task(tid=i, release=0.0, proc=1.0)) for i in range(4)]
        assert [dec.status for dec in decisions] == ["dispatched", "dispatched", SHED, SHED]
        assert all(dec.reason == SHED_SLO for dec in decisions if dec.status == SHED)

    def test_queue_bound_sheds_when_all_candidates_full(self):
        d = Dispatcher(
            EFT(2, tiebreak="min"), admission=AdmissionController(max_queue_depth=1)
        )
        assert d.submit(Task(tid=0, release=0.0, proc=1.0)).status == "dispatched"
        assert d.submit(Task(tid=1, release=0.0, proc=1.0)).status == "dispatched"
        third = d.submit(Task(tid=2, release=0.0, proc=1.0))
        assert third.status == SHED
        assert third.reason == SHED_QUEUE_FULL
        # Once a completion passes, the queue frees up again.
        assert d.submit(Task(tid=3, release=1.0, proc=1.0)).status == "dispatched"

    def test_queue_bound_is_per_candidate_set(self):
        """Only the task's own processing set counts toward the bound."""
        d = Dispatcher(
            EFT(2, tiebreak="min"), admission=AdmissionController(max_queue_depth=1)
        )
        d.submit(Task(tid=0, release=0.0, proc=1.0, machines=frozenset({1})))
        # Machine 1 is full, but machine 2 is empty: still admitted.
        decision = d.submit(Task(tid=1, release=0.0, proc=1.0, machines=frozenset({1, 2})))
        assert decision.status == "dispatched"
        assert decision.machine == 2


class TestEstimatedFlow:
    def test_formula(self):
        task = Task(tid=0, release=2.0, proc=1.5)
        assert estimated_flow(task, [1, 2], {1: 5.0, 2: 3.0}) == pytest.approx(2.5)
        # Release after all completions: flow is just proc.
        assert estimated_flow(task, [1, 2], {1: 0.5, 2: 1.0}) == pytest.approx(1.5)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_exact_for_eft_under_admission(self, seed):
        """Admitted requests achieve exactly the flow admission predicted."""
        inst = _instance(seed)
        d = Dispatcher(
            EFT(inst.m, tiebreak="min"), admission=AdmissionController(slo=1.0)
        )
        decisions = [d.submit(t) for t in inst]
        for dec in decisions:
            if dec.status == "dispatched":
                assert dec.est_flow <= 1.0 + 1e-12
                assert dec.est_flow == pytest.approx(
                    dec.start + dec.task.proc - dec.task.release
                )


class TestShedNeutrality:
    """A shed request must not perturb any admitted decision."""

    @pytest.mark.parametrize("seed", [3, 4])
    def test_admitted_subsequence_unperturbed_deterministic(self, seed):
        inst = _instance(seed, lam=12.0)  # overloaded: plenty of shedding
        slo = 1.5  # above proc=1, so an idle machine always admits
        d = Dispatcher(EFT(inst.m, tiebreak="min"), admission=AdmissionController(slo=slo))
        decisions = [d.submit(t) for t in inst]
        admitted = [dec.task for dec in decisions if dec.status == "dispatched"]
        assert 0 < len(admitted) < len(inst)
        # Re-run only the admitted subsequence with no admission at all.
        clean = Dispatcher(EFT(inst.m, tiebreak="min"))
        for task in admitted:
            clean.submit(task)
        assert clean.placements == {
            t.tid: d.placements[t.tid] for t in admitted
        }

    def test_admitted_subsequence_unperturbed_randomised(self):
        """Shed requests consume no RNG draw: EFT-rand places the
        admitted subsequence exactly as a run that never saw them."""
        inst = _instance(9, lam=12.0)
        slo = 1.5
        d = Dispatcher(
            EFT(inst.m, tiebreak="rand", rng=123),
            admission=AdmissionController(slo=slo),
        )
        decisions = [d.submit(t) for t in inst]
        admitted = [dec.task for dec in decisions if dec.status == "dispatched"]
        assert 0 < len(admitted) < len(inst)
        clean = Dispatcher(EFT(inst.m, tiebreak="rand", rng=123))
        for task in admitted:
            clean.submit(task)
        assert clean.placements == {
            t.tid: d.placements[t.tid] for t in admitted
        }


class TestRealisedServiceDepth:
    """Bounded-queue depth counts a request until its *realised*
    completion (speed, setup), the time the simulator reports — not
    ``start + proc``.  Pinned for the two policies whose service time
    differs from ``proc``; keying depth to ``proc`` sheds a different
    set on this stream (nc-setup sheds 9, 10, 11, 13, ...; speed-eft
    15 requests)."""

    PINNED = {
        "nc-setup": [
            8, 9, 10, 11, 12, 14, 15, 16, 17, 18, 21, 36, 41, 42, 44, 47, 52, 54,
            55, 59, 60, 61, 64, 65, 66, 74, 75,
        ],
        "speed-eft": [12, 15, 20, 42, 45, 54, 56, 59, 60],
    }

    @pytest.mark.parametrize("policy", sorted(PINNED))
    def test_queue_full_sheds_follow_realised_completions(self, policy):
        bound = 2
        inst = _instance(1, m=4, n=80, lam=6.0)
        d = Dispatcher(
            get_scheduler(policy, inst.m, seed=5),
            admission=AdmissionController(max_queue_depth=bound),
        )
        decisions = [d.submit(t) for t in inst]
        shed = [dec.task.tid for dec in decisions if dec.status == SHED]
        assert {dec.reason for dec in decisions if dec.status == SHED} == {SHED_QUEUE_FULL}
        assert shed == self.PINNED[policy]

        dropped = set(shed)
        # Oracle: the simulator's completions of the admitted requests
        # (shedding perturbs nothing), counted per machine by brute force.
        admitted = Instance(m=inst.m, tasks=tuple(t for t in inst if t.tid not in dropped))
        sim = Simulator(get_scheduler(policy, inst.m, seed=5))
        sim.add_instance(admitted)
        sched = sim.run().schedule
        booked: list[tuple[int, float]] = []
        expected = []
        for t in inst:
            depth = min(
                sum(1 for j, end in booked if j == machine and end > t.release)
                for machine in t.eligible(inst.m)
            )
            if depth >= bound:
                expected.append(t.tid)
            else:
                booked.append((sched.machine_of(t.tid), t.release + sched.flow_of(t.tid)))
        assert shed == expected
