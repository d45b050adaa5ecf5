"""Live migration surface: withdraw / apply_placement on the serve tier."""

import pytest

from repro.core import EFT, Task
from repro.serve import Dispatcher
from repro.serve.shard import ShardPlan, ShardRouter


def _dispatcher(m=4):
    return Dispatcher(EFT(m, tiebreak="min"))


def _fleet(m=4):
    """The one-shard fleet, which owns ``apply_placement``."""
    return ShardRouter(ShardPlan.single(m), EFT(m, tiebreak="min"))


def _task(tid, release, proc=1.0, machines=None, key=None):
    return Task(tid=tid, release=release, proc=proc,
                machines=None if machines is None else frozenset(machines), key=key)


class TestWithdraw:
    def test_unknown_tid(self):
        assert _dispatcher().withdraw(99, now=0.0) is None

    def test_started_task_stays(self):
        d = _dispatcher()
        d.submit(_task(0, release=0.0, machines={1}))
        assert d.withdraw(0, now=0.5) is None  # started at 0.0
        assert 0 in d.placements

    def test_tail_withdrawal_unwinds_completion(self):
        d = _dispatcher()
        d.submit(_task(0, release=0.0, machines={1}))       # runs [0, 1)
        d.submit(_task(1, release=0.0, machines={1}))       # queued [1, 2)
        assert d.scheduler.completions[1] == 2.0
        pulled = d.withdraw(1, now=0.5)
        assert pulled is not None and pulled.tid == 1
        assert d.scheduler.completions[1] == 1.0            # tail shrank
        assert d.scheduler.task_counts[1] == 1
        assert 1 not in d.placements and 1 not in d._tasks

    def test_mid_queue_withdrawal_leaves_hole(self):
        """Withdrawing from the middle keeps the machine's committed
        horizon — a deterministic idle hole, never an invented earlier
        finish that later commits could overlap."""
        d = _dispatcher()
        for tid in range(3):                                # [0,1) [1,2) [2,3)
            d.submit(_task(tid, release=0.0, machines={1}))
        assert d.withdraw(1, now=0.5) is not None
        assert d.scheduler.completions[1] == 3.0            # untouched
        assert d.scheduler.task_counts[1] == 2

    def test_withdrawal_leaves_outstanding_counts(self):
        """LOR's outstanding counts and the queue depth read one book,
        so a withdrawal leaves both at once."""
        from repro.schedulers import get_scheduler

        d = Dispatcher(get_scheduler("lor", 2))
        d.submit(_task(0, release=0.0, proc=5.0, machines={1, 2}))
        d.submit(_task(1, release=0.0, proc=5.0, machines={1}))
        assert d.depth(1, 0.5) == 2 and d.scheduler.completions[1] == 10.0
        assert d.withdraw(1, now=0.5) is not None
        assert d.depth(1, 0.5) == 1 and d.scheduler.completions[1] == 5.0
        assert d.scheduler.outstanding(0.5) == {1: 1, 2: 0}

    def test_withdraw_then_redispatch_lands_elsewhere(self):
        d = _fleet(m=2)
        d.submit(_task(0, release=0.0, machines={1}))
        d.submit(_task(1, release=0.0, machines={1}))
        moved = d.dispatchers[0].withdraw(1, now=0.0)
        assert 1 not in d.placements
        [decision] = d.redispatch(
            [_task(1, release=moved.release, machines={2})], now=0.0, reason="rebalance"
        )
        assert decision.machine == 2
        assert decision.reason == "rebalance"


class TestApplyPlacement:
    def test_warmup_charged_to_added_machines_only(self):
        d = _fleet(m=4)
        old = {1: frozenset({1, 2})}
        new = {1: frozenset({1, 2, 3})}
        d.apply_placement(old, new, now=5.0, warmup=2.0)
        completions = d.dispatchers[0].scheduler.completions
        assert completions[3] == 7.0                        # max(0, 5) + 2
        assert completions[1] == 0.0
        assert completions[2] == 0.0

    def test_warmup_stacks_on_committed_work(self):
        d = _fleet(m=2)
        d.submit(_task(0, release=0.0, proc=10.0, machines={2}))
        d.apply_placement({1: frozenset({1})}, {1: frozenset({1, 2})}, now=1.0, warmup=3.0)
        assert d.dispatchers[0].scheduler.completions[2] == 13.0  # max(10, 1) + 3

    def test_zero_warmup_never_perturbs(self):
        """warmup=0 must leave the scheduler state bit-identical — the
        no-trigger identity guarantee depends on it."""
        d = _fleet(m=4)
        d.submit(_task(0, release=0.0, machines={1, 2}))
        before = dict(d.dispatchers[0].scheduler.completions)
        d.apply_placement({1: frozenset({1})}, {1: frozenset({1, 3})}, now=0.5, warmup=0.0)
        assert d.dispatchers[0].scheduler.completions == before

    def test_shrunk_set_migrates_queued_work(self):
        d = _fleet(m=3)
        d.submit(_task(0, release=0.0, machines={1, 2}, key=1))  # starts on 1
        d.submit(_task(1, release=0.0, machines={1, 2}, key=1))  # starts on 2
        d.submit(_task(2, release=0.0, machines={1, 2}, key=1))  # queued on 1
        old = {1: frozenset({1, 2})}
        new = {1: frozenset({2, 3})}  # machine 1 dropped from home 1's set
        moved = d.apply_placement(old, new, now=0.5)
        # The queued task on machine 1 moved; started work stayed put.
        assert [m.task.tid for m in moved] == [2]
        assert moved[0].reason == "rebalance"
        assert d.placements[2][0] in {2, 3}
        assert d.placements[0][0] == 1

    def test_surviving_machine_keeps_its_work(self):
        d = _fleet(m=3)
        d.submit(_task(0, release=0.0, machines={1, 2}, key=1))
        d.submit(_task(1, release=0.0, machines={1, 2}, key=1))
        before = dict(d.placements)
        # Widen only: both current machines survive.
        moved = d.apply_placement(
            {1: frozenset({1, 2})}, {1: frozenset({1, 2, 3})}, now=0.5
        )
        assert moved == []
        assert d.placements == before

    def test_keyless_tasks_never_migrate(self):
        d = _fleet(m=2)
        d.submit(_task(0, release=0.0, machines={1}))
        d.submit(_task(1, release=0.0, machines={1}))        # queued, no key
        moved = d.apply_placement({1: frozenset({1})}, {1: frozenset({2})}, now=0.5)
        assert moved == []

    def test_metrics_roll_in(self):
        d = _fleet(m=3)
        d.submit(_task(0, release=0.0, machines={1, 2}, key=1))
        d.submit(_task(1, release=0.0, machines={1, 2}, key=1))
        d.submit(_task(2, release=0.0, machines={1, 2}, key=1))
        d.apply_placement(
            {1: frozenset({1, 2})}, {1: frozenset({2, 3})}, now=0.5, warmup=1.0, version=4
        )
        snap = d.fleet_registry(members=False).snapshot()
        assert snap["counters"]["rebalance_applied_total"] == 1
        assert snap["counters"]["rebalance_migrated_total"] == 1
        assert snap["counters"]["rebalance_warmup_machines_total"] == 1
        assert snap["gauges"]["placement_version"] == 4

    def test_metrics_lazy_without_rebalance(self):
        """A run that never rebalances must snapshot without any
        rebalance keys — byte-identity with pre-rebalance snapshots."""
        d = _fleet(m=2)
        d.submit(_task(0, release=0.0, machines={1}))
        snap = d.fleet_registry(members=False).snapshot()
        assert not [k for k in snap["counters"] if "rebalance" in k]
        assert "placement_version" not in snap["gauges"]


class TestShardRouterApplyPlacement:
    def _router(self, m=6, shards=2):
        return ShardRouter(ShardPlan.even(m, shards))

    def test_warmup_charged_on_owning_shard(self):
        r = self._router()
        r.apply_placement(
            {1: frozenset({1, 2})}, {1: frozenset({1, 2, 5})}, now=3.0, warmup=2.0
        )
        sid = r.plan.shard_of(5)
        assert r.dispatchers[sid].scheduler.completions[5] == 5.0
        other = r.plan.shard_of(1)
        assert r.dispatchers[other].scheduler.completions[1] == 0.0

    def test_cross_shard_migration(self):
        """Dropping a machine re-places its queued work through the
        router — potentially onto another shard (a handoff)."""
        r = self._router(m=6, shards=2)   # shards: {1..3}, {4..6}
        # Two requests homed on 3 with replicas {3, 4} (straddles the
        # boundary): the first starts on 3, the second queues behind it.
        r.submit(_task(0, release=0.0, machines={3}, key=3))
        r.submit(_task(1, release=0.0, machines={3}, key=3))
        assert r.placements[1][0] == 3
        moved = r.apply_placement(
            {3: frozenset({3})}, {3: frozenset({4})}, now=0.5, version=1
        )
        assert len(moved) == 1
        assert moved[0].machine == 4
        assert r.placements[1][0] == 4
        # Booked on the other shard now; books stay consistent.
        assert r.placements[0][0] == 3
        snap = r.router_registry.snapshot()
        assert snap["counters"]["rebalance_applied_total"] == 1
        assert snap["counters"]["rebalance_migrated_total"] == 1
        assert snap["gauges"]["placement_version"] == 1

    def test_lazy_counters(self):
        r = self._router()
        r.submit(_task(0, release=0.0, machines={1}, key=1))
        snap = r.router_registry.snapshot()
        assert not [k for k in snap["counters"] if "rebalance" in k]
        assert "placement_version" not in snap["gauges"]

    def test_widened_replicas_lose_setup_warmth_like_the_dispatcher(self):
        """The policy's ``on_replicas_added`` hook runs under the router:
        NC-Setup forgets machine 3's warm key once key 1 widens onto it,
        so the next task of that key pays the setup again and lands on
        machine 1 instead of the once-warm machine 3."""
        r = ShardRouter(ShardPlan.single(4), scheduler="nc-setup")
        r.submit(_task(0, release=0.0, machines={3}, key=1))  # warms 3
        for tid in range(1, 5):
            r.submit(_task(tid, release=0.0, machines={1, 2}, key=1))
        r.apply_placement({1: frozenset({1, 2})}, {1: frozenset({1, 2, 3})}, now=0.5)
        decision = r.submit(_task(5, release=0.6, machines={1, 2, 3}, key=1))
        assert (decision.machine, decision.start) == (1, 3.0)

    def test_out_of_range_added_machines_ignored(self):
        r = self._router()
        r.apply_placement({1: frozenset({1})}, {1: frozenset({1, 9})}, now=0.0, warmup=1.0)
        assert all(c == 0.0 for d in r.dispatchers for c in d.scheduler.completions.values())
