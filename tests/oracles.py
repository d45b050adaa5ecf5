"""Golden-trace oracles: every route to a golden must reproduce its bytes.

Each golden case (:data:`repro.campaigns.goldens.GOLDEN_CASES`) is a
checked-in trace.  The checkers here regenerate it along one route and
raise :class:`GoldenMismatch` unless the serialisation equals the file
byte for byte:

* :func:`check_golden` — the scheduler's own driver (``"analytic"``,
  what the files were recorded with) or ``Simulator(backend=...)`` on
  either engine route (``"reference"``, ``"auto"``);
* :func:`check_shadow_golden` — *shadow mode*: the serve tier's
  one-shard :class:`~repro.serve.shard.router.ShardRouter` fed the
  golden stream in virtual time, no admission, no faults;
* :func:`check_shard_shadow_golden` — the same over a disjoint
  multi-shard plan (every processing set local to one shard, the
  Theorem 6 composition condition).  The fleet must reproduce the
  golden twice over: the merged trace equals the file, and each shard
  dispatcher's own records equal the golden's lines for that shard's
  tasks — no shard ever saw (or perturbed) another shard's stream.

:func:`assignment_objectives` is the schedule-objective oracle: every
objective and bulk accessor of a :class:`~repro.core.schedule.Schedule`
recomputed from its per-task :class:`~repro.core.schedule.Assignment`
objects with plain Python arithmetic, to compare bit for bit with what
the schedule computes on its columns (:func:`schedule_objectives`).

The sharded check holds for the deterministic schedulers because EFT
reads only the eligible machines' completion times and, on a disjoint
plan, only the owner shard's tasks write them.  Randomised tie-breaks
(``eft-rand``) are excluded: each shard draws from its own RNG stream,
so per-shard draws cannot reproduce the fleet-wide sequence.
"""

from __future__ import annotations

import numpy as np

from repro.campaigns.goldens import GOLDEN_CASES, generate, golden_path
from repro.campaigns.trace import Trace, dumps, load, record, replay_into
from repro.core.dispatch import ImmediateDispatchScheduler
from repro.core.schedule import Schedule
from repro.core.task import Instance
from repro.serve.dispatcher import DispatchDecision
from repro.serve.shard.plan import ShardPlan
from repro.serve.shard.router import ShardRouter
from repro.simulation.engine import Simulator


class GoldenMismatch(AssertionError):
    """Raised when a regenerated trace differs from the checked-in one."""


def _golden_meta(name: str) -> dict:
    return {"golden": name, "description": GOLDEN_CASES[name].description}


def _require_golden_bytes(name: str, fresh: Trace, drift: str) -> str:
    """Return golden ``name``'s text; raise unless ``fresh`` serialises
    to exactly those bytes (``drift`` leads the error message)."""
    path = golden_path(name)
    if not path.is_file():
        raise GoldenMismatch(f"golden {name!r} missing on disk: {path}")
    text = path.read_text()
    if dumps(fresh) != text:
        raise GoldenMismatch(f"{drift}: trace is not byte-identical to {path}")
    return text


def check_golden(name: str, backend: str = "analytic") -> Trace:
    """Regenerate golden ``name`` through ``backend`` and compare bytes,
    then replay the stored workload through a fresh scheduler and
    compare placements.  Returns the checked-in trace."""
    if backend == "analytic":
        fresh = generate(name)
    else:
        case = GOLDEN_CASES[name]
        instance = case.make_instance()
        scheduler = case.make_scheduler()
        sim = Simulator(scheduler, backend=backend)
        sim.add_instance(instance)
        fresh = record(sim.run().schedule, scheduler=scheduler.name, meta=_golden_meta(name))
    _require_golden_bytes(name, fresh, f"golden {name!r} drifted ({backend} regeneration)")
    stored = load(golden_path(name))
    replayed = replay_into(GOLDEN_CASES[name].make_scheduler(), stored)
    if not stored.schedule().same_placements(replayed):
        raise GoldenMismatch(f"golden {name!r}: replay does not reproduce recorded placements")
    return stored


def shadow_replay(
    instance: Instance,
    scheduler: str | ImmediateDispatchScheduler,
    plan: ShardPlan | None = None,
    seed: int = 0,
) -> tuple[ShardRouter, list[DispatchDecision]]:
    """Feed ``instance`` through a fresh :class:`ShardRouter` over
    ``plan`` (default: the one-shard plan) in virtual time and return it
    with its decisions.

    ``scheduler`` is a registered name (shard ``s`` seeded ``seed +
    s``) or, on the one-shard plan, a fresh scheduler object."""
    plan = ShardPlan.single(instance.m) if plan is None else plan
    if plan.m != instance.m:
        raise ValueError(f"instance has m={instance.m}, plan has m={plan.m}")
    if not isinstance(scheduler, str) and not scheduler.fresh:
        raise ValueError("shadow replay needs a fresh scheduler (tasks already dispatched)")
    router = ShardRouter(plan, scheduler=scheduler, seed=seed)
    decisions = [router.submit(task) for task in instance]
    return router, decisions


def shard_shadow_traces(
    instance: Instance,
    plan: ShardPlan,
    scheduler: str = "eft-min",
    seed: int = 0,
    meta: dict | None = None,
) -> tuple[Trace, dict[int, Trace]]:
    """Replay ``instance`` over ``plan`` and record both views: the
    merged fleet trace and one trace per shard (each shard
    dispatcher's own books)."""
    router, _ = shadow_replay(instance, scheduler, plan=plan, seed=seed)
    name = router.dispatchers[0].scheduler.name
    merged = record(router.schedule(), scheduler=name, meta=meta or {})
    per_shard = {
        sid: record(router.shard_schedule(sid), scheduler=name, meta={**(meta or {}), "shard": sid})
        for sid in range(plan.n_shards)
    }
    return merged, per_shard


def shadow_golden_trace(name: str) -> Trace:
    """Golden case ``name`` replayed through the one-shard serve tier
    and recorded in the format :func:`repro.campaigns.trace.record`
    emits for the engine, with the golden's own provenance meta."""
    case = GOLDEN_CASES[name]
    instance = case.make_instance()
    scheduler = case.make_scheduler()
    router, _ = shadow_replay(instance, scheduler)
    return record(router.schedule(), scheduler=scheduler.name, meta=_golden_meta(name))


def check_shadow_golden(name: str) -> Trace:
    """Assert the single server reproduces golden ``name`` byte for
    byte; returns the shadow trace."""
    shadow = shadow_golden_trace(name)
    _require_golden_bytes(name, shadow, f"shadow dispatcher diverged from golden {name!r}")
    return shadow


def check_shard_shadow_golden(name: str, n_shards: int) -> tuple[Trace, dict[int, Trace]]:
    """Assert the sharded tier reproduces golden ``name`` byte for byte
    on a disjoint ``n_shards``-way plan, merged *and* per shard.

    The plan is :meth:`ShardPlan.for_family` of the golden workload's
    own family, so this raises :class:`ValueError` when the family
    admits no disjoint ``n_shards``-way cut, or when the golden's
    scheduler is randomised.  Returns ``(merged, per_shard)``."""
    case = GOLDEN_CASES[name]
    scheduler_name = case.make_scheduler().name
    if "rand" in scheduler_name.lower():
        raise ValueError(
            f"golden {name!r} uses randomised scheduler {scheduler_name!r}; "
            "sharded byte-identity only holds for deterministic tie-breaks"
        )
    instance = case.make_instance()
    plan = ShardPlan.for_family(instance.processing_sets(), instance.m, n_shards)
    if not plan.is_disjoint_for(instance.processing_sets()):
        raise AssertionError(f"for_family produced a non-disjoint plan for {name!r}")
    merged, per_shard = shard_shadow_traces(
        instance, plan, scheduler=scheduler_name, meta=_golden_meta(name)
    )
    golden_text = _require_golden_bytes(
        name, merged, f"sharded shadow (merged, {n_shards} shards) diverged from golden {name!r}"
    )
    golden_lines = golden_text.splitlines()[1:]  # drop the header line
    owner_of = {t.tid: plan.route(t.eligible(instance.m)).owner for t in instance}
    for sid, trace in per_shard.items():
        want = [line for line, t in zip(golden_lines, instance) if owner_of[t.tid] == sid]
        if dumps(trace).splitlines()[1:] != want:
            raise GoldenMismatch(
                f"sharded shadow diverged from golden {name!r} on shard {sid}: records are "
                "not byte-identical to the golden's lines for that shard's tasks"
            )
    return merged, per_shard


def assignment_objectives(schedule: Schedule) -> dict[str, object]:
    """Every objective and accessor of ``schedule`` from its per-task
    ``Assignment`` objects, one Python float operation at a time (floats
    as ``repr`` strings, so equality is bit equality, signed zeros
    included)."""
    assignments = list(schedule)
    flows = [a.flow for a in assignments]
    loads = [0.0] * schedule.m
    for a in assignments:
        loads[a.machine - 1] += a.task.proc
    makespan = max((a.completion for a in assignments), default=0.0)
    busy = [load / makespan for load in loads] if makespan > 0 else [0.0] * schedule.m
    return _reprs(
        max_flow=max(flows, default=0.0),
        mean_flow=float(np.mean(flows)) if flows else 0.0,
        max_stretch=max((a.stretch for a in assignments), default=0.0),
        makespan=makespan,
        flows=flows,
        machine_loads=loads,
        machine_busy_fraction=busy,
        machines=[a.machine for a in assignments],
        starts=[a.start for a in assignments],
        per_task=[
            (a.task.tid, a.machine, a.start, a.completion, a.flow) for a in assignments
        ],
    )


def schedule_objectives(schedule: Schedule) -> dict[str, object]:
    """What ``schedule`` itself reports for each key of
    :func:`assignment_objectives`."""
    tids = [t.tid for t in schedule.instance]
    return _reprs(
        max_flow=schedule.max_flow,
        mean_flow=schedule.mean_flow,
        max_stretch=schedule.max_stretch,
        makespan=schedule.makespan,
        flows=schedule.flows().tolist(),
        machine_loads=schedule.machine_loads().tolist(),
        machine_busy_fraction=schedule.machine_busy_fraction().tolist(),
        machines=schedule.machines_array().tolist(),
        starts=schedule.starts_array().tolist(),
        per_task=[
            (
                tid,
                schedule.machine_of(tid),
                schedule.start_of(tid),
                schedule.completion_of(tid),
                schedule.flow_of(tid),
            )
            for tid in tids
        ],
    )


def _reprs(**values: object) -> dict[str, object]:
    return {name: repr(value) for name, value in values.items()}
