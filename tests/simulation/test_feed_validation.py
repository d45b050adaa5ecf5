"""The Simulator rejects a processing set that names a machine beyond
``m``, a tid fed before, and a release before the clock, when the task
is fed, on both backends.

Accepting it would treat the missing machines as dead: a set wholly
out of range parks its task forever, and a partly out-of-range one is
dispatched over the in-range part until ``result()`` finally refuses
to build the schedule.  A repeated tid would overwrite the first
task's books (the scheduler's book is keyed by tid) through a whole
drain before ``result()`` refuses it.  The messages are ``Instance``'s.
A release before the clock would fire at that release and move the
clock back.
"""

import pytest

from repro.core import EFT, Instance, Task
from repro.simulation import BACKENDS, Simulator

M = 4


def _message(tid, machines):
    return rf"^task {tid}: processing set \[{', '.join(map(str, machines))}\] exceeds m={M}$"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("machines", [(5, 6), (2, 5)])
class TestOutOfRangeSets:
    def test_add_tasks_rejects_before_feeding(self, backend, machines):
        sim = Simulator(EFT(M), backend=backend)
        good = Task(tid=0, release=0.0, proc=1.0, machines=frozenset({1}))
        bad = Task(tid=1, release=0.0, proc=1.0, machines=frozenset(machines))
        with pytest.raises(ValueError, match=_message(1, machines)):
            sim.add_tasks(iter([good, bad]))
        # nothing of the rejected batch was fed
        result = sim.run()
        assert result.n_completed == 0 and not sim.parked
        sim.add_tasks([good])
        assert sim.run().n_completed == 1

    def test_in_run_injection_is_rejected(self, backend, machines):
        sim = Simulator(EFT(M), backend=backend)
        sim.add_tasks([Task(tid=0, release=0.0, proc=1.0)])
        bad = Task(tid=1, release=1.0, proc=1.0, machines=frozenset(machines))
        sim.at(1.0, lambda s: s.add_tasks([bad]))
        with pytest.raises(ValueError, match=_message(1, machines)):
            sim.run()
        assert not sim.parked
        assert 1 not in sim.assigned_machine


@pytest.mark.parametrize("backend", BACKENDS)
def test_in_range_sets_still_run(backend):
    inst = Instance(
        m=M,
        tasks=tuple(
            Task(tid=i, release=float(i // 2), proc=1.0, machines=ms)
            for i, ms in enumerate([None, frozenset({4}), frozenset({1, 4}), frozenset({2})])
        ),
    )
    sim = Simulator(EFT(M), backend=backend)
    sim.add_instance(inst)
    assert sim.run().n_completed == inst.n


def _dup(tid):
    return rf"^duplicate task id {tid}$"


@pytest.mark.parametrize("backend", BACKENDS)
class TestDuplicateTids:
    def test_add_tasks_rejects_a_repeat_within_the_batch(self, backend):
        sim = Simulator(EFT(2), backend=backend)
        with pytest.raises(ValueError, match=_dup(0)):
            sim.add_tasks([Task(0, 0.0, 1.0), Task(0, 0.5, 1.0)])
        assert sim.run().n_completed == 0

    @pytest.mark.parametrize("first", ["add_tasks", "add_instance"])
    @pytest.mark.parametrize("second", ["add_tasks", "add_instance"])
    def test_a_later_feed_rejects_a_fed_tid(self, backend, first, second):
        """Each feed order, the first feed's tids claimed or not; the
        rejected batch feeds nothing, not even its fresh tids."""
        sim = Simulator(EFT(2), backend=backend)

        def feed(how, tasks):
            if how == "add_tasks":
                sim.add_tasks(tasks)
            else:
                sim.add_instance(Instance(m=2, tasks=tuple(tasks)))

        feed(first, [Task(0, 0.0, 1.0), Task(1, 0.0, 1.0)])
        with pytest.raises(ValueError, match=_dup(1)):
            feed(second, [Task(2, 0.5, 1.0), Task(1, 0.5, 1.0)])
        feed(second, [Task(2, 0.5, 1.0)])
        result = sim.run()
        assert result.n_completed == 3
        assert sorted(sim.completions) == [0, 1, 2]

    def test_a_tid_run_before_is_rejected(self, backend):
        sim = Simulator(EFT(2), backend=backend)
        sim.add_instance(Instance(m=2, tasks=(Task(0, 0.0, 1.0),)))
        sim.run()
        with pytest.raises(ValueError, match=_dup(0)):
            sim.add_tasks([Task(0, 5.0, 1.0)])

    def test_in_run_injection_is_rejected(self, backend):
        sim = Simulator(EFT(2), backend=backend)
        sim.add_tasks([Task(0, 0.0, 4.0), Task(1, 2.0, 1.0)])
        sim.at(1.0, lambda s: s.add_tasks([Task(1, 1.0, 1.0)]))
        with pytest.raises(ValueError, match=_dup(1)):
            sim.run()
        assert 1 not in sim.assigned_machine


def _past(tid, release, now):
    return rf"^task {tid} released at {release} fed at time {now}; a feed may not release into the past$"


@pytest.mark.parametrize("backend", BACKENDS)
class TestNoReleaseIntoThePast:
    def test_injection_before_the_clock_is_rejected(self, backend):
        sim = Simulator(EFT(1), backend=backend)
        sim.add_tasks([Task(0, 0.0, 1.0)])
        sim.at(5.0, lambda s: s.add_tasks([Task(1, 1.0, 1.0)]))
        with pytest.raises(ValueError, match=_past(1, 1.0, 5.0)):
            sim.run()
        assert sim.now == 5.0
        assert sim.starts == {0: 0.0}

    @pytest.mark.parametrize("feed", ["add_tasks", "add_instance"])
    def test_feed_after_a_cutoff_before_the_clock_is_rejected(self, backend, feed):
        sim = Simulator(EFT(1), backend=backend)
        sim.add_tasks([Task(0, 0.0, 1.0)])
        sim.run(until=5.0)
        late = [Task(2, 6.0, 1.0), Task(1, 1.0, 1.0)]
        with pytest.raises(ValueError, match=_past(1, 1.0, 5.0)):
            if feed == "add_tasks":
                sim.add_tasks(late)
            else:
                sim.add_instance(Instance(m=1, tasks=tuple(late)))
        # nothing of the rejected batch was fed
        result = sim.run()
        assert (result.n_completed, sim.now) == (1, 5.0)
        assert sim.starts == {0: 0.0}

    def test_feed_at_the_clock_or_later_runs(self, backend):
        sim = Simulator(EFT(1), backend=backend)
        sim.add_instance(Instance(m=1, tasks=(Task(0, 0.0, 2.0),)))
        sim.run()
        assert sim.now == 2.0
        with pytest.raises(ValueError, match=_past(1, 1.5, 2.0)):
            sim.add_tasks([Task(1, 1.5, 1.0)])
        sim.add_tasks([Task(1, 2.0, 1.0), Task(2, 3.0, 1.0)])
        sim.run()
        assert sim.starts == {0: 0.0, 1: 2.0, 2: 3.0}
        assert sim.now == 4.0
