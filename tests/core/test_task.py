"""Unit tests for the task/instance model."""

import json
import math

import numpy as np
import pytest

from repro.core import Instance, Task


class TestTask:
    def test_basic_construction(self):
        t = Task(tid=0, release=1.5, proc=2.0, machines=frozenset({1, 3}))
        assert t.release == 1.5
        assert t.proc == 2.0
        assert t.machines == {1, 3}

    def test_negative_release_rejected(self):
        with pytest.raises(ValueError, match="release"):
            Task(tid=0, release=-1, proc=1)

    def test_zero_processing_rejected(self):
        with pytest.raises(ValueError, match="processing"):
            Task(tid=0, release=0, proc=0)

    @pytest.mark.parametrize("release", [math.nan, math.inf, -math.inf])
    def test_non_finite_release_rejected(self, release):
        with pytest.raises(ValueError, match="non-finite"):
            Task(tid=0, release=release, proc=1.0)

    @pytest.mark.parametrize("proc", [math.nan, math.inf, -math.inf])
    def test_non_finite_proc_rejected(self, proc):
        with pytest.raises(ValueError, match="non-finite"):
            Task(tid=0, release=0.0, proc=proc)

    def test_finite_negative_release_keeps_its_message(self):
        with pytest.raises(ValueError, match=r"release must be >= 0, got -1\.5"):
            Task(tid=0, release=-1.5, proc=1.0)

    def test_numpy_int_machine_index_rejected(self):
        with pytest.raises(ValueError, match="indices"):
            Task(tid=0, release=0, proc=1, machines=frozenset({np.int64(1)}))

    def test_empty_processing_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Task(tid=0, release=0, proc=1, machines=frozenset())

    def test_bad_machine_index_rejected(self):
        with pytest.raises(ValueError, match="indices"):
            Task(tid=0, release=0, proc=1, machines=frozenset({0, 2}))

    def test_machines_coerced_to_frozenset(self):
        t = Task(tid=0, release=0, proc=1, machines={2, 3})
        assert isinstance(t.machines, frozenset)

    def test_eligible_unrestricted(self):
        t = Task(tid=0, release=0, proc=1)
        assert t.eligible(4) == {1, 2, 3, 4}
        assert t.is_eligible(3, 4)
        assert not t.is_eligible(5, 4)

    def test_eligible_restricted(self):
        t = Task(tid=0, release=0, proc=1, machines=frozenset({2}))
        assert t.eligible(4) == {2}
        assert t.is_eligible(2)
        assert not t.is_eligible(1)

    def test_restricted_to(self):
        t = Task(tid=0, release=0, proc=1)
        t2 = t.restricted_to([1, 2])
        assert t2.machines == {1, 2}
        assert t.machines is None  # original untouched

    def test_is_unit(self):
        assert Task(tid=0, release=0, proc=1).is_unit
        assert not Task(tid=0, release=0, proc=1.5).is_unit


class TestInstance:
    def test_sorting_by_release(self):
        tasks = (
            Task(tid=0, release=3, proc=1),
            Task(tid=1, release=1, proc=1),
            Task(tid=2, release=2, proc=1),
        )
        inst = Instance(m=2, tasks=tasks)
        assert [t.release for t in inst] == [1, 2, 3]

    def test_same_release_sorted_by_tid(self):
        tasks = (
            Task(tid=5, release=1, proc=1),
            Task(tid=2, release=1, proc=1),
        )
        inst = Instance(m=2, tasks=tasks)
        assert [t.tid for t in inst] == [2, 5]

    def test_duplicate_tid_rejected(self):
        tasks = (Task(tid=0, release=0, proc=1), Task(tid=0, release=1, proc=1))
        with pytest.raises(ValueError, match="duplicate"):
            Instance(m=2, tasks=tasks)

    def test_machine_set_exceeding_m_rejected(self):
        tasks = (Task(tid=0, release=0, proc=1, machines=frozenset({3})),)
        with pytest.raises(ValueError, match="exceeds"):
            Instance(m=2, tasks=tasks)

    @pytest.mark.parametrize("field", ["releases", "procs"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_build_rejects_non_finite_times(self, field, bad):
        columns = {"releases": [0.0, 1.0], "procs": [1.0, 1.0]}
        columns[field][1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Instance.build(2, **columns)

    def test_zero_machines_rejected(self):
        with pytest.raises(ValueError, match="machine"):
            Instance(m=0, tasks=())

    def test_derived_quantities(self):
        inst = Instance.build(3, releases=[0, 1, 2], procs=[2, 3, 1])
        assert inst.n == 3
        assert inst.total_work == 6
        assert inst.pmax == 3
        assert not inst.all_unit
        assert list(inst.machines) == [1, 2, 3]

    def test_all_unit(self):
        inst = Instance.build(2, releases=[0, 1], procs=1.0)
        assert inst.all_unit

    def test_is_restricted(self):
        unrestricted = Instance.build(2, releases=[0], procs=1.0)
        assert not unrestricted.is_restricted
        # a set equal to all machines is not a proper restriction
        full = Instance.build(2, releases=[0], procs=1.0, machine_sets=[{1, 2}])
        assert not full.is_restricted
        proper = Instance.build(2, releases=[0], procs=1.0, machine_sets=[{1}])
        assert proper.is_restricted

    def test_build_scalar_proc(self):
        inst = Instance.build(2, releases=[0, 0], procs=2.5)
        assert all(t.proc == 2.5 for t in inst)

    def test_build_length_mismatch(self):
        with pytest.raises(ValueError, match="procs"):
            Instance.build(2, releases=[0, 1], procs=[1])
        with pytest.raises(ValueError, match="machine_sets"):
            Instance.build(2, releases=[0, 1], machine_sets=[{1}])

    def test_with_machine_sets(self):
        inst = Instance.build(3, releases=[0, 1])
        inst2 = inst.with_machine_sets([{1}, {2, 3}])
        assert inst2[0].machines == {1}
        assert inst2[1].machines == {2, 3}
        assert inst[0].machines is None

    def test_json_roundtrip(self):
        inst = Instance.build(
            3, releases=[0, 1.5], procs=[1, 2], machine_sets=[{1, 2}, None], keys=[7, None]
        )
        back = Instance.from_json(inst.to_json())
        assert back.m == inst.m
        for a, b in zip(inst, back):
            assert (a.tid, a.release, a.proc, a.machines, a.key) == (
                b.tid,
                b.release,
                b.proc,
                b.machines,
                b.key,
            )

    def test_json_is_valid_json(self):
        inst = Instance.build(2, releases=[0])
        payload = json.loads(inst.to_json())
        assert payload["m"] == 2

    def test_processing_sets(self):
        inst = Instance.build(2, releases=[0, 0], machine_sets=[{1}, None])
        assert inst.processing_sets() == [frozenset({1}), frozenset({1, 2})]
