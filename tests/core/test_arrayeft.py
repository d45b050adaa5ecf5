"""``eft_schedule``'s array path must be decision-identical to the
reference ``EFT(m, tiebreak).run``."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

import repro.core.eft as eft_module
from repro.core import EFT, MinIndex, Task, eft_schedule
from repro.core.vecengine import lower_eligibility, lower_processing_set
from repro.simulation import Simulator
from tests.conftest import restricted_unit_instances, unrestricted_instances
from tests.oracles import assignment_objectives, schedule_objectives


def _reference(inst, tiebreak="min", rng=None):
    return EFT(inst.m, tiebreak=tiebreak, rng=rng).run(inst)


def _traced_eft_schedule(monkeypatch, inst, tiebreak, rng=None):
    """``eft_schedule(inst, tiebreak, rng)`` and the path it took:
    ``"array"`` (one ``eft_decide`` pass, no ``EFT.run``) or
    ``"reference"`` (one ``EFT.run``, no ``eft_decide``)."""
    calls = {"eft_decide": 0, "run": 0}
    decide, run = eft_module.eft_decide, EFT.run

    def counting_decide(*args):
        calls["eft_decide"] += 1
        return decide(*args)

    def counting_run(self, instance):
        calls["run"] += 1
        return run(self, instance)

    with monkeypatch.context() as patch:
        patch.setattr(eft_module, "eft_decide", counting_decide)
        patch.setattr(EFT, "run", counting_run)
        sched = eft_schedule(inst, tiebreak, rng=rng)
    path = {(1, 0): "array", (0, 1): "reference"}[calls["eft_decide"], calls["run"]]
    return sched, path


@given(restricted_unit_instances())
@settings(max_examples=80, deadline=None)
def test_identical_min(inst):
    assert eft_schedule(inst, "min").same_placements(_reference(inst, "min"), tol=0.0)


@given(restricted_unit_instances())
@settings(max_examples=50, deadline=None)
def test_identical_max(inst):
    assert eft_schedule(inst, "max").same_placements(_reference(inst, "max"), tol=0.0)


@given(unrestricted_instances())
@settings(max_examples=50, deadline=None)
def test_identical_on_unrestricted(inst):
    assert eft_schedule(inst, "min").same_placements(_reference(inst, "min"), tol=0.0)


@given(restricted_unit_instances())
@settings(max_examples=40, deadline=None)
def test_fmax_shortcut_agrees(inst):
    """The array path's objectives equal the per-Assignment arithmetic
    over the reference run's placements, bit for bit."""
    sched = eft_schedule(inst, "min")
    ref = _reference(inst, "min")
    assert schedule_objectives(sched) == assignment_objectives(ref)


def test_rand_falls_back_to_reference(monkeypatch):
    """Tie-breaks the array engine cannot express take the reference
    path, and with a pinned seed reproduce its decisions exactly."""
    from repro.simulation import WorkloadSpec, generate_workload

    spec = WorkloadSpec(m=6, n=120, lam=0.6 * 6, k=2, strategy="overlapping")
    inst = generate_workload(spec, rng=9)
    sched, path = _traced_eft_schedule(monkeypatch, inst, "rand", rng=77)
    assert path == "reference"
    ref = _reference(inst, "rand", rng=77)
    assert sched.same_placements(ref, tol=0.0)
    assert sched.max_flow == ref.max_flow


def test_min_max_take_array_path(monkeypatch):
    from repro.core import MaxIndex
    from repro.simulation import WorkloadSpec, generate_workload

    spec = WorkloadSpec(m=6, n=80, lam=0.5 * 6, k=2, strategy="disjoint")
    inst = generate_workload(spec, rng=2)
    for tb in ("min", "max", MinIndex(), MaxIndex()):
        sched, path = _traced_eft_schedule(monkeypatch, inst, tb)
        assert path == "array"
        ref = _reference(inst, tb)
        assert sched.same_placements(ref, tol=0.0)
        assert schedule_objectives(sched) == assignment_objectives(ref)


def test_same_array_rule_as_simulator(monkeypatch):
    """``eft_schedule`` and ``Simulator(backend="auto")`` take the array
    path for exactly the same tie-breaks (one shared predicate)."""
    from repro.simulation import WorkloadSpec, generate_workload

    class Custom(MinIndex):
        pass

    spec = WorkloadSpec(m=5, n=60, lam=0.6 * 5, k=2, strategy="overlapping")
    inst = generate_workload(spec, rng=5)
    for tb in ("min", "max", "rand", "least_loaded", Custom()):
        sim = Simulator(EFT(inst.m, tiebreak=tb, rng=3))
        sim.add_instance(inst)
        sim.run()
        _, path = _traced_eft_schedule(monkeypatch, inst, tb, rng=3)
        assert path == sim.backend_used, tb


def test_processing_set_cache_is_reused_across_calls():
    """Satellite regression: set lowering must hit the process-wide LRU
    on repeat solves instead of rebuilding per call."""
    from repro.simulation import WorkloadSpec, generate_workload

    spec = WorkloadSpec(m=8, n=100, lam=0.5 * 8, k=2, strategy="overlapping")
    inst = generate_workload(spec, rng=4)
    lower_processing_set.cache_clear()
    eft_schedule(inst, "min")
    first = lower_processing_set.cache_info()
    assert first.misses > 0  # the distinct sets were lowered once...
    eft_schedule(inst, "min")
    second = lower_processing_set.cache_info()
    assert second.misses == first.misses  # ...and never again
    assert second.hits > first.hits


@st.composite
def _tasks_with_sets(draw):
    """``(m, tasks)`` whose sets mix ``None``, shared set objects, equal
    but distinct copies of them and fresh sets."""
    m = draw(st.integers(1, 6))
    values = st.frozensets(st.integers(1, m), min_size=1, max_size=3)
    shared = draw(st.lists(values, min_size=1, max_size=3))
    sets = draw(
        st.lists(
            st.one_of(
                st.none(),
                st.sampled_from(shared),
                st.sampled_from(shared).map(lambda s: frozenset(list(s))),
                values,
            ),
            max_size=30,
        )
    )
    return m, [Task(tid=i, release=0.0, proc=1.0, machines=s) for i, s in enumerate(sets)]


@given(_tasks_with_sets())
@settings(max_examples=200, deadline=None)
def test_lower_eligibility_lowers_each_task_as_its_set(case):
    """Lowering each distinct set once per call changes no task's tuple."""
    m, tasks = case
    assert lower_eligibility(m, tasks) == [lower_processing_set(m, t.machines) for t in tasks]


def test_lower_processing_set_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"^processing set \[2, 5\] exceeds m=4$"):
        lower_processing_set(4, frozenset({2, 5}))


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    tiebreak=st.sampled_from(["min", "max"]),
)
@settings(max_examples=25, deadline=None)
def test_identical_on_dynamic_workloads(seed, tiebreak):
    """Parity holds on the rebalance-era generators too: hotspot-shift
    popularity over a flash-crowd rate, randomized by seed."""
    from repro.simulation import FlashCrowd, HotspotShift, WorkloadSpec
    from repro.simulation.workload import bake_instance

    spec = WorkloadSpec(
        m=8,
        n=120,
        lam=3.0,
        rate_profile=FlashCrowd(base=3.0, peak=15.0, start=5.0, duration=4.0),
        popularity_profile=HotspotShift(m=8, s=1.5, shifts=((10.0, 4),)),
        k=2,
    )
    releases, homes, sizes = spec.stream(seed)
    inst = bake_instance(spec.m, spec.replication(), releases, homes, sizes, keys=homes)
    assert eft_schedule(inst, tiebreak).same_placements(
        _reference(inst, tiebreak), tol=0.0
    )


def test_workload_scale_sanity():
    """A Figure-11-sized workload runs through the array path and
    matches the reference on the objective."""
    from repro.simulation import WorkloadSpec, generate_workload

    spec = WorkloadSpec(m=15, n=4000, lam=0.7 * 15, k=3, strategy="overlapping")
    inst = generate_workload(spec, rng=3)
    assert eft_schedule(inst, "min").max_flow == _reference(inst, "min").max_flow
