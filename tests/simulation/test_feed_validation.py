"""The Simulator rejects a processing set that names a machine beyond
``m`` when the task is fed, on both backends.

Accepting it would treat the missing machines as dead: a set wholly
out of range parks its task forever, and a partly out-of-range one is
dispatched over the in-range part until ``result()`` finally refuses
to build the schedule.  The message is ``Instance``'s.
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
