"""Unit tests for the immediate-dispatch driver."""

import pytest

from repro.core import EFT, ImmediateDispatchScheduler, Instance, Task


class TestDriver:
    def test_abstract_choose(self):
        sched = ImmediateDispatchScheduler(2)
        with pytest.raises(NotImplementedError):
            sched.submit(Task(tid=0, release=0, proc=1))

    def test_submit_returns_tie_set(self):
        eft = EFT(3, tiebreak="min")
        record = eft.submit(Task(tid=0, release=0, proc=1))
        assert record.tie_set == {1, 2, 3}
        assert record.machine == 1

    def test_task_counts(self):
        eft = EFT(2, tiebreak="min")
        for i in range(4):
            eft.submit(Task(tid=i, release=0, proc=1))
        assert eft.task_counts == {1: 2, 2: 2}

    def test_empty_processing_set_guard(self):
        eft = EFT(2)
        task = Task(tid=0, release=0, proc=1, machines=frozenset({1}))
        object.__setattr__(task, "machines", frozenset())  # simulate corruption
        with pytest.raises(ValueError, match="empty processing set"):
            eft.submit(task)

    def test_choose_outside_set_guard(self):
        class Rogue(ImmediateDispatchScheduler):
            def choose(self, task):
                return 2, frozenset({2})

        rogue = Rogue(2)
        with pytest.raises(ValueError, match="outside the"):
            rogue.submit(Task(tid=0, release=0, proc=1, machines=frozenset({1})))

    def test_run_checks_m(self):
        inst = Instance.build(3, releases=[0])
        with pytest.raises(ValueError, match="m="):
            EFT(2).run(inst)

    def test_run_returns_valid_schedule(self):
        inst = Instance.build(2, releases=[0, 0], procs=1.0)
        sched = EFT(2, tiebreak="min").run(inst)
        sched.validate()
        assert len(sched) == 2

    def test_incremental_schedule_materialisation(self):
        eft = EFT(2, tiebreak="min")
        eft.submit(Task(tid=0, release=0, proc=1))
        partial = eft.schedule()
        assert len(partial) == 1
        eft.submit(Task(tid=1, release=1, proc=1))
        assert len(eft.schedule()) == 2

    def test_waiting_work_clamps_to_zero(self):
        eft = EFT(2)
        eft.submit(Task(tid=0, release=0, proc=1))
        w = eft.waiting_work(5.0)
        assert w == {1: 0.0, 2: 0.0}
