"""Property tests for invariants every zoo policy must share.

Each registered policy, whatever its internals, must (1) respect
processing-set restrictions, (2) conserve work fault-free, (3) preempt
exactly when it declares itself preemptive, and (4) produce
byte-stable, replayable traces.  Running the whole registry through
one parametrized harness is what keeps the pluggable contract honest.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaigns.trace import dumps, record, replay_into
from repro.core import Task
from repro.schedulers import get_scheduler, list_schedulers
from repro.simulation import Simulator
from tests.conftest import restricted_unit_instances, unrestricted_instances

ALL_POLICIES = tuple(info["name"] for info in list_schedulers())
SEED = 1234


@pytest.mark.parametrize("policy", ALL_POLICIES)
class TestSharedInvariants:
    @given(inst=restricted_unit_instances(max_m=5, max_n=15))
    @settings(max_examples=15, deadline=None)
    def test_no_task_on_ineligible_machine(self, policy, inst):
        sim = Simulator(get_scheduler(policy, inst.m, seed=SEED))
        sim.add_instance(inst)
        sim.run()
        for t in inst:
            assert sim.assigned_machine[t.tid] in t.eligible(inst.m)

    @given(inst=unrestricted_instances(max_m=4, max_n=15, unit=False))
    @settings(max_examples=15, deadline=None)
    def test_work_conservation_fault_free(self, policy, inst):
        """Every released task completes, and total machine busy time
        equals the total realised service — nothing lost, nothing
        invented, even across preemption splits and setup charges."""
        sim = Simulator(get_scheduler(policy, inst.m, seed=SEED))
        sim.add_instance(inst)
        res = sim.run()
        assert res.n_completed == len(inst.tasks)
        sched = sim.scheduler
        total_service = sum(
            sched.service_of(t.tid, t.proc) for t in inst.tasks
        )
        total_busy = sum(ms.busy_time for ms in sim.machines.values())
        assert total_busy == pytest.approx(total_service)

    @given(inst=unrestricted_instances(max_m=4, max_n=15, unit=False))
    @settings(max_examples=15, deadline=None)
    def test_preemption_matches_declaration(self, policy, inst):
        sched = get_scheduler(policy, inst.m, seed=SEED)
        sim = Simulator(sched)
        sim.add_instance(inst)
        res = sim.run()
        if not sched.preemptive:
            assert res.n_preempted == 0

    @given(inst=restricted_unit_instances(max_m=4, max_n=12))
    @settings(max_examples=10, deadline=None)
    def test_trace_replay_is_byte_stable(self, policy, inst):
        """Two fresh same-seed runs over the same workload record
        byte-identical traces; and when the policy records true
        processing times (service == proc), replaying the trace's own
        workload reproduces the placements exactly."""
        first = get_scheduler(policy, inst.m, seed=SEED)
        first.run(inst)
        trace = record(first.schedule(), scheduler=first.name)
        fresh = get_scheduler(policy, inst.m, seed=SEED)
        again = record(fresh.run(inst), scheduler=fresh.name)
        assert dumps(again) == dumps(trace)
        # Service-transforming policies (setup charges, speed scaling)
        # record *realised* times, so their trace workload is not the
        # original instance; exact replay is only promised otherwise.
        if tuple(t.proc for t in trace.instance()) == tuple(
            t.proc for t in inst
        ):
            replayer = get_scheduler(policy, inst.m, seed=SEED)
            replayed = replay_into(replayer, trace)
            assert replayed.same_placements(trace.schedule(), tol=0.0)


@st.composite
def _streams(draw, max_m: int = 5, max_n: int = 20):
    """Release-ordered keyed tasks with any processing times and sets."""
    m = draw(st.integers(1, max_m))
    release, tasks = 0.0, []
    for tid in range(draw(st.integers(1, max_n))):
        release += draw(st.sampled_from([0.0, 0.25, 1.0, 2.5]))
        machines = draw(st.none() | st.frozensets(st.integers(1, m), min_size=1))
        tasks.append(Task(
            tid=tid, release=release, proc=draw(st.sampled_from([0.5, 1.0, 3.0])),
            machines=machines, key=draw(st.none() | st.integers(0, 2)),
        ))
    return m, tasks


@pytest.mark.parametrize("policy", ALL_POLICIES)
@given(stream=_streams())
@settings(max_examples=25, deadline=None)
def test_place_matches_submit(policy, stream):
    """``place`` is ``submit`` without the placement books: twin
    schedulers decide and charge identically, step by step."""
    m, tasks = stream
    placed = get_scheduler(policy, m, seed=SEED)
    submitted = get_scheduler(policy, m, seed=SEED)
    for task in tasks:
        a, b = placed.place(task), submitted.submit(task)
        assert (a.machine, a.start, a.tie_set) == (b.machine, b.start, b.tie_set)
        assert placed.completions == submitted.completions
        assert placed.task_counts == submitted.task_counts
        assert placed._service == submitted._service
    assert placed._tasks == placed._machines == placed._starts == []
    assert submitted.n_dispatched == len(tasks)
