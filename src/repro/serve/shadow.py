"""Virtual-time shadow mode: the service cross-checked against the engine.

The live serve tier and the discrete-event
:class:`~repro.simulation.engine.Simulator` drive the *same* scheduler
objects through the same ``submit`` contract, so on a recorded arrival
stream they must take identical decisions.  Shadow mode makes that an
executable guarantee: replay a stream through the service's
:class:`~repro.serve.shard.router.ShardRouter` over a shard plan with
admission disabled, record the committed schedule as a
:mod:`repro.campaigns.trace` and compare **bytes** with the trace the
engine (or the checked-in golden fixture) produces.

On the one-shard plan (the single server) this checks the dispatcher
against every golden.  On a **disjoint** multi-shard plan (every
processing set local to one shard — the Theorem 6 composition
condition) the fleet must reproduce the golden *twice over*:

* **merged**: the union of all shard placements, serialised as a
  trace, is byte-identical to the golden file — sharding changed
  nothing;
* **per shard**: each shard dispatcher's own trace records are
  byte-identical to the golden's records filtered to that shard's
  tasks — no shard ever saw (or perturbed) another shard's stream.

Both hold for the deterministic schedulers (``eft-min``, ``eft-max``,
``least-work``, …) because EFT reads only the eligible machines'
completion times and, on a disjoint plan, only the owner shard's tasks
ever write them.  Randomised tie-breaks (``eft-rand``) are excluded
from the sharded check: each shard draws from its own RNG stream, so
per-shard draws cannot reproduce the fleet-wide sequence — a property
of RNG plumbing, not of the composition theorem.

This is the deployment safety net: any change to the serving layer
that would alter a placement — a reordered tie-break, a drifted
completion-time bookkeeping, an admission check that leaks into the
admitted path — shows up as a golden diff before it ships.
"""

from __future__ import annotations

from ..campaigns.goldens import GOLDEN_CASES, GoldenMismatch, golden_path
from ..campaigns.trace import Trace, _record_line, dumps, record
from ..core.dispatch import ImmediateDispatchScheduler
from ..core.task import Instance
from .shard.plan import ShardPlan
from .dispatcher import DispatchDecision
from .shard.router import ShardRouter

__all__ = [
    "check_shadow_golden",
    "check_shard_shadow_golden",
    "shadow_golden_trace",
    "shadow_replay",
    "shadow_trace",
    "shard_shadow_traces",
]


def shadow_replay(
    instance: Instance,
    scheduler: str | ImmediateDispatchScheduler,
    plan: ShardPlan | None = None,
    seed: int = 0,
) -> tuple[ShardRouter, list[DispatchDecision]]:
    """Feed ``instance`` through a fresh :class:`ShardRouter` over
    ``plan`` (default: the one-shard plan) in virtual time — no
    admission, no faults — and return it with its decisions.

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


def shadow_trace(
    instance: Instance,
    scheduler: ImmediateDispatchScheduler,
    meta: dict | None = None,
) -> Trace:
    """The schedule trace of a one-shard shadow replay, in the exact
    format :func:`repro.campaigns.trace.record` emits for the engine."""
    router, _ = shadow_replay(instance, scheduler)
    return record(router.schedule(), scheduler=scheduler.name, meta=meta or {})


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


def _golden_text(name: str) -> str:
    path = golden_path(name)
    if not path.is_file():
        raise GoldenMismatch(f"golden {name!r} missing on disk: {path}")
    return path.read_text()


def shadow_golden_trace(name: str) -> Trace:
    """Regenerate the golden case ``name`` through the *serve tier*
    (not the bare scheduler), with the golden's own provenance meta —
    byte-comparable to the checked-in fixture."""
    case = GOLDEN_CASES[name]
    return shadow_trace(
        case.make_instance(),
        case.make_scheduler(),
        meta={"golden": name, "description": case.description},
    )


def check_shadow_golden(name: str) -> Trace:
    """Assert the single server reproduces golden ``name`` byte-for-byte.

    Returns the shadow trace on success; raises
    :class:`~repro.campaigns.goldens.GoldenMismatch` otherwise.
    """
    golden_text = _golden_text(name)
    shadow = shadow_golden_trace(name)
    if dumps(shadow) != golden_text:
        raise GoldenMismatch(
            f"shadow dispatcher diverged from golden {name!r}: trace is not "
            f"byte-identical to {golden_path(name)}"
        )
    return shadow


def check_shard_shadow_golden(name: str, n_shards: int) -> tuple[Trace, dict[int, Trace]]:
    """Assert the sharded tier reproduces golden ``name`` byte-for-byte
    on a disjoint ``n_shards``-way plan, merged *and* per shard.

    The plan is derived from the golden workload's own processing-set
    family (:meth:`ShardPlan.for_family`), so this raises
    :class:`ValueError` when the family admits no disjoint
    ``n_shards``-way cut (e.g. overlapping ring replication with more
    than one shard).  Returns ``(merged, per_shard)`` traces on
    success; raises :class:`GoldenMismatch` on any byte difference.
    """
    case = GOLDEN_CASES[name]
    scheduler_name = case.make_scheduler().name
    if "rand" in scheduler_name.lower():
        raise ValueError(
            f"golden {name!r} uses randomised scheduler {scheduler_name!r}; "
            "sharded byte-identity only holds for deterministic tie-breaks "
            "(per-shard RNG streams cannot reproduce the fleet-wide draw "
            "sequence)"
        )
    golden_text = _golden_text(name)
    instance = case.make_instance()
    plan = ShardPlan.for_family(instance.processing_sets(), instance.m, n_shards)
    if not plan.is_disjoint_for(instance.processing_sets()):
        raise AssertionError(f"for_family produced a non-disjoint plan for {name!r}")
    merged, per_shard = shard_shadow_traces(
        instance,
        plan,
        scheduler=scheduler_name,
        meta={"golden": name, "description": case.description},
    )
    if dumps(merged) != golden_text:
        raise GoldenMismatch(
            f"sharded shadow (merged, {n_shards} shards) diverged from golden "
            f"{name!r}: trace is not byte-identical to {golden_path(name)}"
        )
    golden_lines = golden_text.splitlines()[1:]  # drop the header line
    owner_of = {t.tid: plan.route(t.eligible(instance.m)).owner for t in instance}
    for sid, trace in per_shard.items():
        want = [line for line, t in zip(golden_lines, instance) if owner_of[t.tid] == sid]
        if [_record_line(r) for r in trace.records] != want:
            raise GoldenMismatch(
                f"sharded shadow diverged from golden {name!r} on shard {sid}: "
                f"records are not byte-identical to the golden's lines for "
                f"that shard's tasks"
            )
    return merged, per_shard
