"""Differential oracles for the fleet surface.

The serve frontend always enacts a :class:`ShardRouter`; a single server
is the one-shard fleet.  Two checks, for every policy in the registry:

* on fresh-submit streams ``ShardRouter(ShardPlan.single(m))`` takes
  exactly the decisions of a bare :class:`Dispatcher` over the same
  scheduler — status, machine, start, estimated flow and reason (the
  router only adds the fleet-level failure rule, which a fault-free
  stream never reaches);
* under every interleaving hypothesis draws of the operations the
  service performs — fresh submits, machine kills and revivals, failure
  redispatch and rebalance ``apply_placement`` — on a one-shard and a
  two-shard fleet, the fleet's metrics agree with its own books after
  every step (``requests_total``/``shed_total`` with ``stats()``,
  ``parked_now`` with the parking lot), and the same operation stream,
  journaled and recovered through a blank router, rebuilds the
  uninterrupted fleet's state exactly.
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
        record = ("redispatch", {"tids": [victim], "now": clock})
        return _outcome(lambda: target.redispatch([task], clock)), record, clock, tid
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


def _check_books(router):
    """The fleet's metrics tell the same story as its books."""
    stats = router.stats()
    snap = router.fleet_registry(members=False).snapshot()
    assert snap["counters"]["requests_total"] == stats["requests"]
    assert snap["counters"]["shed_total"] == stats["shed"]
    assert snap["gauges"].get("parked_now", 0) == len(router.parked) == stats["parked"]


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(SUBMIT, min_size=1, max_size=40))
def test_one_shard_router_is_the_dispatcher(policy, ops):
    single = Dispatcher(make_scheduler(policy, M, seed=7))
    router = ShardRouter(ShardPlan.single(M), scheduler=policy, seed=7)
    clock_d = clock_r = 0.0
    tid_d = tid_r = 0
    for op in ops:
        want, _, clock_d, tid_d = _apply(single, op, clock_d, tid_d)
        got, _, clock_r, tid_r = _apply(router, op, clock_r, tid_r)
        assert got == want, op
    assert router.placements == single.placements
    assert dumps(record(router.schedule())) == dumps(record(single.schedule()))


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("shards", [1, 2])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(OPS, min_size=1, max_size=40))
def test_interleavings_keep_books_and_recover(policy, shards, ops):
    def fleet():
        return ShardRouter(ShardPlan.even(M, shards), scheduler=policy, seed=7)

    router = fleet()
    records = []  # the journal the service would have written
    clock, tid = 0.0, 0
    for op in ops:
        _, entry, clock, tid = _apply(router, op, clock, tid)
        _check_books(router)
        if entry is not None:
            records.append(entry)

    with tempfile.TemporaryDirectory() as tmp:
        journal = Journal(tmp, fsync="never")
        for kind, data in records:
            journal.append(kind, data)
        journal.close()
        with Journal(tmp, fsync="never") as reopened:
            recovered = Dispatcher.recover(reopened, into=fleet())
    assert recovered.dispatcher.state_dict() == router.state_dict()
