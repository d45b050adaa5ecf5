"""Tests for explicit preemptive timetable extraction."""

import pytest
from hypothesis import given, settings

from repro.core import Instance
from repro.offline import optimal_preemptive_fmax
from repro.offline.preemptive_schedule import (
    preemptive_schedule_pieces,
    validate_pieces,
)
from tests.conftest import restricted_unit_instances, unrestricted_instances


class TestPieces:
    def test_empty(self):
        assert preemptive_schedule_pieces(Instance(m=2, tasks=()), 1.0) == []

    def test_infeasible_returns_none(self):
        inst = Instance.build(1, releases=[0, 0], procs=[2.0, 2.0])
        assert preemptive_schedule_pieces(inst, 3.0) is None

    def test_mcnaughton_case(self):
        """3 tasks of length 2 on 2 machines, F = 3: the wrap-around
        schedule must split at least one task across machines."""
        inst = Instance.build(2, releases=[0, 0, 0], procs=2.0)
        pieces = preemptive_schedule_pieces(inst, 3.0)
        assert pieces is not None
        validate_pieces(inst, pieces, 3.0)
        # some task runs on two machines (in disjoint time slices)
        machines_per_task = {}
        for p in pieces:
            machines_per_task.setdefault(p.tid, set()).add(p.machine)
        assert any(len(ms) > 1 for ms in machines_per_task.values())

    def test_restricted_case(self):
        inst = Instance.build(
            2, releases=[0, 0, 1], procs=[2.0, 1.0, 1.0], machine_sets=[{1}, {1, 2}, {2}]
        )
        f = optimal_preemptive_fmax(inst)
        pieces = preemptive_schedule_pieces(inst, f + 1e-6)
        assert pieces is not None
        validate_pieces(inst, pieces, f + 1e-5)

    def test_optimal_wrapper(self):
        inst = Instance.build(2, releases=[0, 0, 0], procs=2.0)
        value = optimal_preemptive_fmax(inst)
        assert value == pytest.approx(3.0, abs=1e-4)
        pieces = preemptive_schedule_pieces(inst, value + 1e-6)
        assert pieces is not None
        validate_pieces(inst, pieces, value + 1e-4)

    @given(unrestricted_instances(max_m=3, max_n=8))
    @settings(max_examples=20, deadline=None)
    def test_pieces_feasible_at_optimum(self, inst):
        f = optimal_preemptive_fmax(inst)
        pieces = preemptive_schedule_pieces(inst, f + 1e-5)
        assert pieces is not None
        validate_pieces(inst, pieces, f + 1e-4)

    @given(restricted_unit_instances(max_m=3, max_n=8))
    @settings(max_examples=20, deadline=None)
    def test_pieces_feasible_restricted(self, inst):
        f = optimal_preemptive_fmax(inst)
        pieces = preemptive_schedule_pieces(inst, f + 1e-5)
        assert pieces is not None
        validate_pieces(inst, pieces, f + 1e-4)


class TestValidator:
    def _base(self):
        inst = Instance.build(1, releases=[0], procs=[1.0])
        return inst

    def test_rejects_missing_work(self):
        from repro.offline.preemptive_schedule import Piece

        inst = self._base()
        with pytest.raises(ValueError, match="work"):
            validate_pieces(inst, [Piece(0, 1, 0.0, 0.5)], 2.0)

    def test_rejects_early_start(self):
        from repro.offline.preemptive_schedule import Piece

        inst = Instance.build(1, releases=[1.0], procs=[1.0])
        with pytest.raises(ValueError, match="before its release"):
            validate_pieces(inst, [Piece(0, 1, 0.0, 1.0)], 5.0)

    def test_rejects_deadline_miss(self):
        from repro.offline.preemptive_schedule import Piece

        inst = self._base()
        with pytest.raises(ValueError, match="deadline"):
            validate_pieces(inst, [Piece(0, 1, 5.0, 6.0)], 2.0)

    def test_rejects_overlap(self):
        from repro.offline.preemptive_schedule import Piece

        inst = Instance.build(1, releases=[0, 0], procs=[1.0, 1.0])
        pieces = [Piece(0, 1, 0.0, 1.0), Piece(1, 1, 0.5, 1.5)]
        with pytest.raises(ValueError, match="overlaps"):
            validate_pieces(inst, pieces, 5.0)

    def test_rejects_ineligible(self):
        from repro.offline.preemptive_schedule import Piece

        inst = Instance.build(2, releases=[0], machine_sets=[{1}])
        with pytest.raises(ValueError, match="ineligible"):
            validate_pieces(inst, [Piece(0, 2, 0.0, 1.0)], 5.0)
