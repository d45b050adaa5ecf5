"""``Simulator.result()`` on the reference loop against the dict-built
schedule it used to return.

``result()`` builds its :class:`Schedule` from the engine's books as
columns (:meth:`Schedule.from_arrays`).  :func:`_dict_result` rebuilds
the result the way it was built before — one ``Schedule`` over a
``tid -> (machine, start)`` dict, flows read back per
:class:`Assignment` — so every run here checks the placements at
``tol=0``, the iteration order, ``validate()`` and every
:class:`SimulationResult` field bit for bit, and the schedule's
objectives against the per-Assignment arithmetic
(:func:`tests.oracles.assignment_objectives`).
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core import EFT, Instance, Task
from repro.core.dispatch import realised
from repro.core.schedule import Schedule, ScheduleError
from repro.faults.schedule import chaos_schedule
from repro.schedulers.registry import get_scheduler
from repro.simulation import Simulator
from repro.simulation.workload import WorkloadSpec, generate_workload
from tests.oracles import assignment_objectives, schedule_objectives

M = 6


def _instance(n: int = 300, seed: int = 3) -> Instance:
    spec = WorkloadSpec(m=M, n=n, lam=5.0, k=2, size_dist="exp")
    return generate_workload(spec, rng=seed)


def _faults(inst: Instance):
    return chaos_schedule(M, inst.tasks[-1].release + 1.0, mtbf=8.0, mttr=2.0, seed=5,
                          machines=[1, 2, 3])


def _dict_result(sim: Simulator):
    """The result as the dict-built schedule gave it."""
    placements = {tid: (sim.assigned_machine[tid], sim.starts[tid]) for tid in sim.starts}
    started = realised((t for t in sim._tasks if t.tid in sim.starts), sim._svc)
    sched = Schedule(Instance(m=sim.m, tasks=started), placements)
    if (sim.faults is not None and bool(sim.faults)) or sim._preemptive:
        all_flows = [
            sim.completions[t.tid] - t.release if t.tid in sim.completions else sim.now - t.release
            for t in sim._tasks
        ]
    else:
        all_flows = [sched.flow_of(t.tid) for t in started] + [
            sim.now - t.release for t in sim._tasks if t.tid not in sim.starts
        ]
    makespan = max(sim.completions.values(), default=0.0)
    mean_flow = sum(all_flows) / len(all_flows) if all_flows else 0.0
    return sim._summarise(
        sched, max(all_flows, default=0.0), mean_flow, makespan,
        len(sim.completions), len(sim._tasks), len(sim.starts),
    )


def _validation(sched: Schedule) -> str | None:
    try:
        sched.validate()
    except ScheduleError as exc:
        return str(exc)
    return None


def _shuffled_feed(sim: Simulator) -> None:
    """Integral releases fed shuffled, so same-instant tasks are
    released out of tid order and the rows must be re-sorted."""
    rng = random.Random(7)
    tasks = [
        Task(tid=i, release=float(rng.randrange(40)), proc=rng.uniform(0.2, 3.0),
             machines=frozenset(rng.sample(range(1, M + 1), 2)))
        for i in range(200)
    ]
    rng.shuffle(tasks)
    sim.add_tasks(tasks)


def _run(case: str) -> Simulator:
    inst = _instance()
    if case == "fault-free":
        sim = Simulator(EFT(M), backend="reference")
    elif case in ("restart", "resume"):
        sim = Simulator(EFT(M), faults=_faults(inst), fault_policy=case)
    elif case == "srpt-ps":
        sim = Simulator(get_scheduler("srpt-ps", M), faults=_faults(inst))
    elif case == "speed-eft":
        sim = Simulator(get_scheduler("speed-eft", M))
    elif case == "shuffled":
        sim = Simulator(EFT(M), backend="reference")
        _shuffled_feed(sim)
        sim.run()
        return sim
    else:  # "cutoff": a truncated run with tasks pending and in flight
        sim = Simulator(EFT(M))
        sim.add_instance(inst)
        sim.run(until=inst.tasks[len(inst.tasks) // 2].release)
        return sim
    sim.add_instance(inst)
    sim.run()
    return sim


CASES = ["fault-free", "restart", "resume", "srpt-ps", "speed-eft", "shuffled", "cutoff"]


@pytest.mark.parametrize("case", CASES)
def test_result_equals_dict_built_schedule(case):
    sim = _run(case)
    assert sim.backend_used == "reference"
    new, old = sim.result(), _dict_result(sim)
    assert new.schedule.same_placements(old.schedule, tol=0)
    assert [(a.task, a.machine, a.start) for a in new.schedule] == [
        (a.task, a.machine, a.start) for a in old.schedule
    ]
    assert _validation(new.schedule) == _validation(old.schedule)
    for field in dataclasses.fields(new):
        if field.name != "schedule":
            assert repr(getattr(new, field.name)) == repr(getattr(old, field.name)), field.name
    assert schedule_objectives(new.schedule) == assignment_objectives(old.schedule)


def test_cases_cover_what_they_name():
    """The runs above reach the branches they are named for."""
    assert _run("cutoff").result().n_pending > 0
    assert _run("srpt-ps").result().n_preempted > 0
    assert _run("restart").result().n_requeued > 0
    assert _run("resume").result().n_resumed > 0
    speed = _run("speed-eft")
    work = {t.tid: t.proc for t in speed._tasks}
    assert any(a.task.proc != work[a.task.tid] for a in speed.result().schedule)
    shuffled = _run("shuffled")
    tids = [t.tid for t in shuffled._tasks]
    assert tids != [a.task.tid for a in shuffled.result().schedule]
