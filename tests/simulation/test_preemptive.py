"""Invariants of the online preemptive engine's timetable, one per test.

The engine lives in :mod:`repro.offline.preemptive_schedule`; its
policy tests and the combined ``validate_pieces`` property are in
``tests/offline/test_preemptive_engine.py``.
"""

import pytest
from hypothesis import given, settings

from repro.offline import PreemptiveEngine, fifo_priority, srpt_priority
from tests.conftest import restricted_unit_instances, unrestricted_instances


def piece_volume(result, tid):
    return sum(p.end - p.start for p in result.pieces if p.tid == tid)


class TestEngineInvariants:
    @given(unrestricted_instances(max_m=4, max_n=15))
    @settings(max_examples=40, deadline=None)
    def test_work_conservation(self, inst):
        """Every task receives exactly its processing time."""
        result = PreemptiveEngine(srpt_priority).run(inst)
        for t in inst:
            assert piece_volume(result, t.tid) == pytest.approx(t.proc, abs=1e-6)

    @given(unrestricted_instances(max_m=4, max_n=12))
    @settings(max_examples=30, deadline=None)
    def test_no_machine_overlap(self, inst):
        result = PreemptiveEngine(srpt_priority).run(inst)
        per_machine: dict[int, list[tuple[float, float]]] = {}
        for p in result.pieces:
            per_machine.setdefault(p.machine, []).append((p.start, p.end))
        for spans in per_machine.values():
            spans.sort()
            for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
                assert a2 >= b1 - 1e-9

    @given(unrestricted_instances(max_m=4, max_n=12))
    @settings(max_examples=30, deadline=None)
    def test_no_task_parallelism(self, inst):
        """A task never runs on two machines at once."""
        result = PreemptiveEngine(srpt_priority).run(inst)
        per_task: dict[int, list[tuple[float, float]]] = {}
        for p in result.pieces:
            per_task.setdefault(p.tid, []).append((p.start, p.end))
        for spans in per_task.values():
            spans.sort()
            for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
                assert a2 >= b1 - 1e-9

    @given(restricted_unit_instances(max_m=4, max_n=12))
    @settings(max_examples=30, deadline=None)
    def test_eligibility_respected(self, inst):
        result = PreemptiveEngine(fifo_priority).run(inst)
        tasks = {t.tid: t for t in inst}
        for p in result.pieces:
            assert tasks[p.tid].is_eligible(p.machine, inst.m)

    @given(unrestricted_instances(max_m=4, max_n=12))
    @settings(max_examples=30, deadline=None)
    def test_pieces_after_release(self, inst):
        result = PreemptiveEngine(srpt_priority).run(inst)
        tasks = {t.tid: t for t in inst}
        for p in result.pieces:
            assert p.start >= tasks[p.tid].release - 1e-9
