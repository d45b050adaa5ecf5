"""Differential oracle: a one-shard router *is* the dispatcher.

The serve frontend always enacts a :class:`ShardRouter`; a single server
is the one-shard fleet.  That is only safe if
``ShardRouter(ShardPlan.single(m))`` takes exactly the decisions of a
bare :class:`Dispatcher` over the same scheduler, under every
interleaving of the operations the service performs — fresh submits,
machine kills and revivals, failure redispatch and rebalance
``apply_placement`` — for every policy in the registry.  Hypothesis
draws the interleavings; decisions must match one for one on status,
machine, start, estimated flow and reason.  The same operation stream,
journaled and recovered through the router, must rebuild the
uninterrupted router's state exactly.
"""

import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaigns.trace import dumps, make_scheduler, record
from repro.core.task import Task
from repro.schedulers.registry import list_schedulers
from repro.serve import Dispatcher, Journal, ShardPlan, ShardRouter, task_to_wire

M = 4
SETS = [
    frozenset(s)
    for s in ({1, 2}, {2, 3}, {3, 4}, {4, 1}, {1}, {3}, {2, 4}, {1, 2, 3, 4})
]
POLICIES = [p["name"] for p in list_schedulers()]

SUBMIT = st.tuples(
    st.just("submit"),
    st.sampled_from(range(len(SETS))),
    st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    st.sampled_from([0.0, 0.0, 0.1, 0.5]),
)
OPS = st.one_of(
    SUBMIT,
    SUBMIT,
    st.tuples(st.just("kill"), st.integers(1, M)),
    st.tuples(st.just("revive"), st.integers(1, M)),
    st.tuples(st.just("redispatch"), st.integers(0, 10_000)),
    # Widen or narrow home ``u``'s replica set (keys are set minima).
    st.tuples(
        st.just("rebalance"),
        st.integers(1, M),
        st.frozensets(st.integers(1, M), min_size=1),
        st.sampled_from([0.0, 0.5]),
    ),
)


def _fields(decision):
    return (decision.task.tid, decision.status, decision.machine, decision.start,
            decision.est_flow, decision.reason)


def _outcome(fn):
    """Decision fields of ``fn()`` (one or a list), or the error it raised."""
    try:
        out = fn()
    except ValueError as exc:
        return ("error", type(exc).__name__, str(exc))
    if isinstance(out, list):
        return [_fields(d) for d in out]
    return _fields(out)


def _apply(target, op, clock, tid):
    """Apply one drawn op to ``target``; returns (outcome, journal record
    or None, new clock, new tid)."""
    kind = op[0]
    if kind == "submit":
        _, idx, proc, gap = op
        clock += gap
        machines = SETS[idx]
        task = Task(tid=tid, release=clock, proc=proc, machines=machines, key=min(machines))
        record = ("submit", {"task": task_to_wire(task), "dedupe": None})
        return _outcome(lambda: target.submit(task)), record, clock, tid + 1
    if kind in ("kill", "revive"):
        machine = op[1]
        record = (kind, {"machine": machine, "now": clock})
        if kind == "kill":

            def fn():
                target.kill(machine)
                return []

        else:

            def fn():
                return target.revive(machine, clock)

        return _outcome(fn), record, clock, tid
    if kind == "redispatch":
        placed = sorted(target.placements)
        if not placed:
            return None, None, clock, tid
        victim = placed[op[1] % len(placed)]
        task = target.task(victim)
        record = ("redispatch", {"tid": victim, "now": clock})
        return _outcome(lambda: target.redispatch(task, clock)), record, clock, tid
    _, home, new_set, warmup = op
    old = {home: SETS[home - 1]}
    new = {home: new_set}
    record = (
        "rebalance",
        {
            "old": {str(u): sorted(s) for u, s in old.items()},
            "new": {str(u): sorted(s) for u, s in new.items()},
            "now": clock,
            "warmup": warmup,
        },
    )
    return _outcome(lambda: target.apply_placement(old, new, clock, warmup=warmup)), record, clock, tid


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(OPS, min_size=1, max_size=40))
def test_one_shard_router_is_the_dispatcher(policy, ops):
    single = Dispatcher(make_scheduler(policy, M, seed=7))
    router = ShardRouter(ShardPlan.single(M), scheduler=policy, seed=7)
    records = []  # the journal the service would have written
    clock_d = clock_r = 0.0
    tid_d = tid_r = 0
    for op in ops:
        want, entry, clock_d, tid_d = _apply(single, op, clock_d, tid_d)
        got, _, clock_r, tid_r = _apply(router, op, clock_r, tid_r)
        assert got == want, op
        if entry is not None:
            records.append(entry)
    assert router.placements == single.placements
    assert dumps(record(router.schedule())) == dumps(record(single.schedule()))
    assert sorted(router.stats()["alive"]) == sorted(single.alive)
    assert router.stats()["parked"] == len(single.parked)

    with tempfile.TemporaryDirectory() as tmp:
        journal = Journal(tmp, fsync="never")
        for kind, data in records:
            journal.append(kind, data)
        journal.close()
        with Journal(tmp, fsync="never") as reopened:
            recovered = Dispatcher.recover(
                reopened, into=ShardRouter(ShardPlan.single(M), scheduler=policy, seed=7)
            )
    assert recovered.dispatcher.state_dict() == router.state_dict()
