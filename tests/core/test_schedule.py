"""Unit tests for the schedule container and validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Instance, Schedule, ScheduleError, Task
from repro.core.dispatch import realised
from tests.conftest import examples
from tests.oracles import assignment_objectives, schedule_objectives


def simple_instance() -> Instance:
    return Instance.build(2, releases=[0, 0, 1], procs=[2, 1, 1])


class TestConstruction:
    def test_missing_placement_rejected(self):
        inst = simple_instance()
        with pytest.raises(ScheduleError, match="without placement"):
            Schedule(inst, {0: (1, 0.0)})

    def test_unknown_placement_rejected(self):
        inst = simple_instance()
        with pytest.raises(ScheduleError, match="unknown"):
            Schedule(inst, {0: (1, 0.0), 1: (2, 0.0), 2: (1, 2.0), 9: (1, 0.0)})

    def test_accessors(self):
        inst = simple_instance()
        sched = Schedule(inst, {0: (1, 0.0), 1: (2, 0.0), 2: (2, 1.0)})
        assert sched.machine_of(0) == 1
        assert sched.start_of(2) == 1.0
        assert sched.completion_of(0) == 2.0
        assert sched.flow_of(2) == 1.0
        assert len(sched) == 3


class TestObjectives:
    def test_max_flow(self):
        inst = simple_instance()
        # task 1 waits behind task 0 on machine 1
        sched = Schedule(inst, {0: (1, 0.0), 1: (1, 2.0), 2: (2, 1.0)})
        assert sched.max_flow == 3.0  # task 1: completes 3, released 0
        assert sched.makespan == 3.0

    def test_mean_flow_and_stretch(self):
        inst = Instance.build(1, releases=[0, 0], procs=[1, 1])
        sched = Schedule(inst, {0: (1, 0.0), 1: (1, 1.0)})
        assert sched.mean_flow == pytest.approx(1.5)
        assert sched.max_stretch == pytest.approx(2.0)

    def test_machine_loads(self):
        inst = simple_instance()
        sched = Schedule(inst, {0: (1, 0.0), 1: (2, 0.0), 2: (2, 1.0)})
        assert np.allclose(sched.machine_loads(), [2.0, 2.0])

    def test_flows_array_order(self):
        inst = simple_instance()
        sched = Schedule(inst, {0: (1, 0.0), 1: (2, 0.0), 2: (2, 1.0)})
        assert sched.flows().tolist() == [2.0, 1.0, 1.0]


class TestValidation:
    def test_valid_schedule_passes(self):
        inst = simple_instance()
        sched = Schedule(inst, {0: (1, 0.0), 1: (2, 0.0), 2: (2, 1.0)})
        sched.validate()
        assert sched.is_valid()

    def test_start_before_release_rejected(self):
        inst = simple_instance()
        sched = Schedule(inst, {0: (1, 0.0), 1: (2, 0.0), 2: (2, 0.5)})
        with pytest.raises(ScheduleError, match="before release"):
            sched.validate()

    def test_overlap_rejected(self):
        inst = simple_instance()
        sched = Schedule(inst, {0: (1, 0.0), 1: (1, 1.0), 2: (2, 1.0)})
        with pytest.raises(ScheduleError, match="before task"):
            sched.validate()

    def test_eligibility_rejected(self):
        inst = Instance.build(2, releases=[0], machine_sets=[{1}])
        sched = Schedule(inst, {0: (2, 0.0)})
        with pytest.raises(ScheduleError, match="not in processing set"):
            sched.validate()

    def test_machine_out_of_range_rejected(self):
        inst = Instance.build(2, releases=[0])
        sched = Schedule(inst, {0: (3, 0.0)})
        with pytest.raises(ScheduleError, match="outside"):
            sched.validate()

    def test_back_to_back_allowed(self):
        inst = Instance.build(1, releases=[0, 0], procs=[1, 1])
        sched = Schedule(inst, {0: (1, 0.0), 1: (1, 1.0)})
        sched.validate()


class TestComparison:
    def test_same_placements(self):
        inst = simple_instance()
        a = Schedule(inst, {0: (1, 0.0), 1: (2, 0.0), 2: (2, 1.0)})
        b = Schedule(inst, {0: (1, 0.0), 1: (2, 0.0), 2: (2, 1.0)})
        c = Schedule(inst, {0: (2, 0.0), 1: (1, 0.0), 2: (2, 1.0)})
        assert a.same_placements(b)
        assert not a.same_placements(c)

    def test_on_machine_sorted(self):
        inst = Instance.build(1, releases=[0, 0, 0], procs=1.0)
        sched = Schedule(inst, {0: (1, 2.0), 1: (1, 0.0), 2: (1, 1.0)})
        assert [a.task.tid for a in sched.on_machine(1)] == [1, 2, 0]


_TIMES = st.floats(0, 20, allow_nan=False, allow_infinity=False)
_PROCS = st.floats(0.1, 5, allow_nan=False, allow_infinity=False)


@st.composite
def _placed_instances(draw):
    """``(instance, machines, starts)``: 0 to 12 tasks (empty and
    single-task instances included) with float releases, some procs
    replaced by a realised service time (as ``Simulator.result()``
    derives its instance), and arbitrary placements — feasibility is
    not the point, the arithmetic is."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(0, 12))
    tasks = [Task(tid=i, release=draw(_TIMES), proc=draw(_PROCS)) for i in range(n)]
    service = draw(st.dictionaries(st.sampled_from(range(n)), _PROCS) if n else st.just({}))
    inst = Instance(m=m, tasks=realised(tasks, service))
    machines = draw(st.lists(st.integers(1, m), min_size=n, max_size=n))
    starts = draw(st.lists(_TIMES, min_size=n, max_size=n))
    return inst, machines, starts


def _build(kind, inst, machines, starts):
    if kind == "dict":
        return Schedule(inst, {t.tid: (mu, s) for t, mu, s in zip(inst, machines, starts)})
    if kind == "arrays":
        return Schedule.from_arrays(inst, machines, starts)
    # the engine's call: the release and proc columns handed over too
    releases = np.array([t.release for t in inst], dtype=np.float64)
    procs = np.array([t.proc for t in inst], dtype=np.float64)
    return Schedule.from_arrays(inst, machines, starts, releases=releases, procs=procs)


class TestColumnsMatchAssignments:
    """Every objective and accessor, computed on the columns, equals the
    per-Assignment arithmetic bit for bit, however the schedule was
    built."""

    @pytest.mark.parametrize("kind", ["dict", "arrays", "arrays+columns"])
    @given(case=_placed_instances())
    @settings(max_examples=examples(150), deadline=None)
    def test_objectives_equal_assignment_arithmetic(self, kind, case):
        inst, machines, starts = case
        sched = _build(kind, inst, machines, starts)
        assert [(a.task, a.machine, a.start) for a in sched] == list(
            zip(inst.tasks, machines, [float(s) for s in starts])
        )
        assert schedule_objectives(sched) == assignment_objectives(sched)

    def test_array_lengths_must_cover_the_instance(self):
        with pytest.raises(ValueError, match="cover the instance"):
            Schedule.from_arrays(simple_instance(), [1, 2], [0.0, 0.0])
