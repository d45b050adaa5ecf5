"""NC-Setup: non-clairvoyant dispatch with per-machine setup times."""

import pytest
from hypothesis import given, settings

from repro.core import Instance, LeastOutstanding, Task
from repro.schedulers import NCSetup, get_scheduler
from repro.serve import ShardPlan, ShardRouter
from repro.simulation import Simulator
from tests.conftest import faulted_decisions, faulted_streams


def _task(tid, release, proc, key=None, machines=None):
    return Task(
        tid=tid,
        release=float(release),
        proc=float(proc),
        key=key,
        machines=frozenset(machines) if machines else None,
    )


class TestSetupModel:
    def test_cold_machine_pays_setup(self):
        s = NCSetup(2, setup=1.5)
        t = _task(0, 0, 2.0, key=7)
        machine, ties = s.choose(t)
        assert machine == 1 and ties == frozenset({1, 2})
        assert s.charge(t, machine, t.release) == pytest.approx(3.5)
        assert s.setup_paid == pytest.approx(1.5)
        assert s.is_warm(1, t)

    def test_warm_machine_is_free(self):
        s = NCSetup(2, setup=1.0)
        a = _task(0, 0, 2.0, key=7)
        s.charge(a, 1, a.release)
        b = _task(1, 5, 2.0, key=7)
        assert s.charge(b, 1, b.release) == pytest.approx(2.0)
        assert s.setup_paid == pytest.approx(1.0)

    def test_warmth_is_per_key(self):
        s = NCSetup(1, setup=1.0)
        s.charge(_task(0, 0, 1.0, key=7), 1, 0.0)
        # a different key on the same machine is still cold
        assert s.charge(_task(1, 2, 1.0, key=8), 1, 2.0) == pytest.approx(2.0)
        assert s.setup_paid == pytest.approx(2.0)

    def test_unkeyed_tasks_share_one_warmup(self):
        s = NCSetup(1, setup=1.0)
        s.charge(_task(0, 0, 1.0), 1, 0.0)
        assert s.charge(_task(1, 2, 1.0), 1, 2.0) == pytest.approx(1.0)

    def test_choose_prefers_warm_machine(self):
        s = NCSetup(2, setup=1.0)
        s.charge(_task(0, 0, 1.0, key=7), 2, 0.0)  # warm machine 2 for key 7
        machine, _ = s.choose(_task(1, 5, 1.0, key=7))
        # counts equal (0, 0); machine 1 scores 0+setup, machine 2 scores 0
        assert machine == 2

    def test_outstanding_count_beats_warmth(self):
        s = NCSetup(2, setup=0.5)
        # two in-flight requests warm machine 1 but load it up
        s._book(_task(0, 0, 4.0, key=7), 1, 0.0)
        s._book(_task(1, 0, 4.0, key=7), 1, 0.0)
        machine, _ = s.choose(_task(2, 1, 1.0, key=7))
        # machine 1: q=2 + 0; machine 2: q=0 + 0.5 -> machine 2 wins
        assert machine == 2

    def test_negative_setup_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            NCSetup(2, setup=-1.0)

    def test_non_clairvoyant_choice_ignores_proc(self):
        """The same arrival pattern with wildly different service times
        yields identical placements — the policy never reads proc to
        decide."""
        choices = []
        for procs in ((1.0, 1.0, 1.0), (9.0, 0.1, 5.0)):
            s = NCSetup(3, setup=1.0)
            picked = []
            for tid, p in enumerate(procs):
                t = _task(tid, tid * 0.1, p, key=tid)
                machine, _ = s.choose(t)
                s.charge(t, machine, t.release)
                picked.append(machine)
            choices.append(picked)
        assert choices[0] == choices[1]


class TestEngineIntegration:
    def test_flows_include_setup(self):
        inst = Instance(m=1, tasks=(_task(0, 0, 2.0, key=7),))
        sim = Simulator(NCSetup(1, setup=1.0))
        sim.add_instance(inst)
        res = sim.run()
        # realised service is 3.0 (2 proc + 1 warmup)
        assert res.max_flow == pytest.approx(3.0)
        assert res.makespan == pytest.approx(3.0)

    def test_second_hit_on_warm_key_is_fast(self):
        inst = Instance(
            m=1,
            tasks=(_task(0, 0, 2.0, key=7), _task(1, 4, 2.0, key=7)),
        )
        sim = Simulator(NCSetup(1, setup=1.0))
        sim.add_instance(inst)
        res = sim.run()
        assert sim.completions[0] == pytest.approx(3.0)
        assert sim.completions[1] == pytest.approx(6.0)  # no second warmup
        assert sim.scheduler.setup_paid == pytest.approx(1.0)
        assert res.mean_flow == pytest.approx((3.0 + 2.0) / 2)

    @given(faulted_streams())
    @settings(max_examples=60, deadline=None)
    def test_zero_setup_is_least_outstanding(self, stream):
        """At setup 0 NC-Setup is its least-outstanding rule (Mäcker et
        al.'s reduction), decision for decision on the analytic driver
        and through machine outages under both fault policies — every
        re-placement reaches both policies' in-flight books."""
        inst = stream[0]
        ncs = NCSetup(inst.m, setup=0.0).run(inst)
        assert ncs.same_placements(LeastOutstanding(inst.m).run(inst), tol=0.0)
        assert faulted_decisions(NCSetup(inst.m, setup=0.0), stream) == faulted_decisions(
            LeastOutstanding(inst.m), stream
        )

    def test_registry_flags(self):
        s = get_scheduler("nc-setup", 2)
        assert s.clairvoyant is False
        assert s.preemptive is False
        assert s.name == "NC-Setup(s=1)"


class TestRebalanceIntegration:
    def test_apply_placement_chills_added_replicas(self):
        sched = NCSetup(2, setup=1.0)
        disp = ShardRouter(ShardPlan.single(2), sched)
        d0 = disp.submit(_task(0, 0, 2.0, key=7, machines={1, 2}))
        warm_machine = d0.machine
        assert sched.is_warm(warm_machine, _task(0, 0, 1.0, key=7))
        # a rebalance widens key 7's replica set onto the warm machine:
        # its cache is declared cold again
        other = 2 if warm_machine == 1 else 1
        disp.apply_placement(
            {7: frozenset({other})},
            {7: frozenset({other, warm_machine})},
            now=10.0,
        )
        assert not sched.is_warm(warm_machine, _task(0, 0, 1.0, key=7))
        # and the next hit pays the warmup again
        paid = sched.setup_paid
        disp.submit(_task(1, 10.0, 2.0, key=7, machines={warm_machine}))
        assert sched.setup_paid == pytest.approx(paid + 1.0)

    def test_unchanged_sets_leave_warm_state_alone(self):
        sched = NCSetup(2, setup=1.0)
        disp = ShardRouter(ShardPlan.single(2), sched)
        disp.submit(_task(0, 0, 2.0, key=7, machines={1}))
        disp.apply_placement(
            {7: frozenset({1})}, {7: frozenset({1})}, now=5.0
        )
        assert sched.is_warm(1, _task(0, 0, 1.0, key=7))
