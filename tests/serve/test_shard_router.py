"""Unit tests for ShardRouter: locality, handoff, faults, rollup."""

import pytest

from repro.core.task import Task
from repro.serve import DISPATCHED, PARKED, REQUEUED, SHED, ShardPlan, ShardRouter
from repro.serve.dispatcher import Dispatcher
from repro.campaigns.trace import make_scheduler


def _task(tid, release, machines, proc=1.0):
    return Task(tid=tid, release=release, proc=proc, machines=frozenset(machines))


@pytest.fixture
def plan():
    return ShardPlan.even(6, 2)  # shards: 1..3, 4..6


class TestLocalDispatch:
    def test_local_set_goes_to_owner_shard(self, plan):
        router = ShardRouter(plan)
        routed = router.submit(_task(0, 0.0, {1, 2}))
        assert routed.status == DISPATCHED
        assert routed.shard == 0 and not routed.handoff
        assert routed.machine in {1, 2}

    def test_matches_single_dispatcher_on_disjoint_stream(self):
        plan = ShardPlan.aligned(6, 2, 3)
        router = ShardRouter(plan, scheduler="eft-min")
        single = Dispatcher(make_scheduler("eft-min", 6))
        tasks = [
            _task(i, 0.1 * i, {1 + 2 * (i % 3), 2 + 2 * (i % 3)}, proc=0.7)
            for i in range(30)
        ]
        for t in tasks:
            r = router.submit(t)
            d = single.submit(t)
            assert (r.machine, r.start) == (d.machine, d.start)
        assert router.placements == single.placements

    def test_original_task_kept_in_merged_books(self, plan):
        router = ShardRouter(plan)
        router.submit(_task(0, 0.0, {3, 4}))  # straddling: shard sees {3}
        sched = router.schedule()
        assert sched.instance[0].machines == frozenset({3, 4})


class TestHandoff:
    def test_straddler_stays_on_owner_while_alive(self, plan):
        router = ShardRouter(plan)
        routed = router.submit(_task(0, 0.0, {3, 4}))
        assert routed.shard == 0 and routed.machine == 3 and not routed.handoff

    def test_dead_owner_fragment_hands_off(self, plan):
        router = ShardRouter(plan)
        router.kill(3)
        routed = router.submit(_task(0, 0.0, {3, 4}))
        assert routed.handoff
        assert routed.shard == 1 and routed.machine == 4
        assert routed.status == REQUEUED
        assert router.stats()["handoffs"] == 1

    def test_handoff_picks_least_waiting_work(self, plan):
        router = ShardRouter(plan)
        router.kill(3)
        # Load machine 4 so the handoff target 5 (in the same set? no —
        # set {3,4} only) still lands on 4; use set {3,4,5} to see the rule.
        router.dispatchers[1].submit(_task(99, 0.0, {4}, proc=5.0))
        routed = router.submit(_task(0, 0.0, {3, 4, 5}))
        assert routed.machine == 5  # 4 has 5 units of waiting work

    def test_whole_set_dead_parks_then_revives(self, plan):
        router = ShardRouter(plan)
        router.kill(3)
        router.kill(4)
        routed = router.submit(_task(0, 0.0, {3, 4}))
        assert routed.status == PARKED and routed.shard is None
        assert router.parked
        replaced = router.revive(4, now=0.5)
        assert [r.status for r in replaced] == [REQUEUED]
        assert replaced[0].machine == 4
        assert not router.parked

    def test_shed_mode(self, plan):
        router = ShardRouter(plan, on_unavailable="shed")
        router.kill(3)
        router.kill(4)
        routed = router.submit(_task(0, 0.0, {3, 4}))
        assert routed.status == SHED
        assert router.stats()["shed"] == 1

    def test_redispatch_routes_fleet_wide(self, plan):
        router = ShardRouter(plan)
        t = _task(0, 0.0, {3, 4})
        router.submit(t)
        router.kill(3)
        [routed] = router.redispatch([t], now=0.2)
        assert routed.machine == 4 and routed.shard == 1


class TestDuplicateTids:
    def test_repeated_tid_rejected_without_booking(self):
        router = ShardRouter(ShardPlan.single(2))
        task = _task(0, 0.0, {1})
        router.submit(task)
        with pytest.raises(ValueError, match="duplicate task id 0"):
            router.submit(task)
        scheduler = router.dispatchers[0].scheduler
        assert scheduler.task_counts[1] == 1
        assert scheduler.completions[1] == 1.0
        assert router.dispatchers[0].depth(1, 0.0) == 1
        assert router.stats()["requests"] == 1

    def test_booked_on_another_shard_or_parked_rejected(self, plan):
        router = ShardRouter(plan)
        router.submit(_task(0, 0.0, {4}))
        with pytest.raises(ValueError, match="duplicate task id 0"):
            router.submit(_task(0, 0.0, {1}))
        router.kill(2)
        assert router.submit(_task(1, 0.0, {2})).status == PARKED
        with pytest.raises(ValueError, match="duplicate task id 1"):
            router.submit(_task(1, 0.0, {1}))
        assert router.parked == [_task(1, 0.0, {2})]

    def test_shed_tid_may_be_retried(self):
        router = ShardRouter(ShardPlan.single(2), on_unavailable="shed")
        router.kill(1)
        assert router.submit(_task(0, 0.0, {1})).status == SHED
        router.revive(1)
        assert router.submit(_task(0, 0.0, {1})).status == DISPATCHED


class TestMetrics:
    def test_fleet_rollup_sums_shards(self, plan):
        router = ShardRouter(plan)
        router.submit(_task(0, 0.0, {1, 2}))
        router.submit(_task(1, 0.0, {5, 6}))
        snap = router.fleet_registry().snapshot()
        assert snap["counters"]["dispatched_total"] == 2
        assert snap["counters"]["shard0/dispatched_total"] == 1
        assert snap["counters"]["shard1/dispatched_total"] == 1
        assert snap["counters"]["router/requests_total"] == 2
        assert snap["counters"]["requests_total"] == 2

    def test_stats_shape(self, plan):
        router = ShardRouter(plan)
        router.submit(_task(0, 0.0, {1, 2}))
        stats = router.stats()
        assert stats["requests"] == 1
        assert [s["machines"] for s in stats["shards"]] == [[1, 3], [4, 6]]


class TestValidation:
    def test_bad_on_unavailable(self, plan):
        with pytest.raises(ValueError, match="on_unavailable"):
            ShardRouter(plan, on_unavailable="explode")

    def test_shard_local_admission(self, plan):
        router = ShardRouter(plan, max_queue_depth=1)
        assert router.submit(_task(0, 0.0, {1}, proc=5.0)).status == DISPATCHED
        assert router.submit(_task(1, 0.0, {1}, proc=5.0)).status == SHED
        # The other shard's ceiling is untouched.
        assert router.submit(_task(2, 0.0, {4}, proc=5.0)).status == DISPATCHED


class TestSupervision:
    def test_detached_owner_hands_off(self, plan):
        router = ShardRouter(plan)
        router.detach_shard(0)
        routed = router.submit(_task(0, 0.0, {1, 2, 4}))
        # The owner's process is down: even though its alive-bits say
        # otherwise, the submit must land on the surviving shard.
        assert routed.handoff
        assert routed.shard == 1 and routed.machine == 4

    def test_detached_only_set_parks_then_unparks_on_reattach(self, plan):
        router = ShardRouter(plan)
        router.detach_shard(0)
        routed = router.submit(_task(0, 0.0, {1, 2}))
        assert routed.status == PARKED
        replaced = router.reattach_shard(0, now=1.0)
        assert [r.task.tid for r in replaced] == [0]
        assert replaced[0].status == REQUEUED
        assert replaced[0].machine in {1, 2}

    def test_detach_is_idempotent_and_counted(self, plan):
        router = ShardRouter(plan)
        router.detach_shard(1)
        router.detach_shard(1)
        assert router.stats()["down_shards"] == [1]
        snap = router.router_registry.snapshot()
        assert snap["counters"]["router_detached_total"] == 1
        assert snap["gauges"]["router_shards_down"] == 1

    def test_reattach_keeps_the_shard_books(self, plan):
        router = ShardRouter(plan)
        router.submit(_task(0, 0.0, {1, 2}))
        books = router.dispatchers[0]
        router.detach_shard(0)
        assert router.reattach_shard(0, now=0.5) == []
        assert router.dispatchers[0] is books
        assert router.placements == {0: (1, 0.0)}
        assert router.stats()["down_shards"] == []
        # Routing to the rejoined shard works again.
        routed = router.submit(_task(1, 0.5, {1, 2}))
        assert routed.shard == 0 and not routed.handoff

    def test_out_of_range_shard_rejected(self, plan):
        router = ShardRouter(plan)
        with pytest.raises(ValueError, match="out of range"):
            router.detach_shard(2)
        with pytest.raises(ValueError, match="out of range"):
            router.reattach_shard(-1)


class TestOneParkingLot:
    """The router's lot is the fleet's only parking lot: one unpark
    loop, in global park order, that knows about detached shards."""

    def test_detached_shard_work_stays_parked_across_machine_revive(self, plan):
        router = ShardRouter(plan)
        router.kill(1)
        task = _task(0, 0.0, {1})
        assert router.submit(task).status == PARKED
        router.detach_shard(0)
        # Machine 1 is back, but its shard's process is not.
        assert router.revive(1, now=1.0) == []
        assert router.parked == [task]
        replaced = router.reattach_shard(0, now=2.0)
        assert [(r.task.tid, r.status, r.machine, r.shard) for r in replaced] == [
            (0, REQUEUED, 1, 0)
        ]
        assert router.parked == []

    def test_fleet_metrics_match_stats(self, plan):
        shedding = ShardRouter(plan, on_unavailable="shed")
        shedding.kill(3)
        shedding.kill(4)
        assert shedding.submit(_task(0, 0.0, {3, 4})).status == SHED
        counters = shedding.fleet_registry().snapshot()["counters"]
        stats = shedding.stats()
        assert counters["shed_total"] == stats["shed"] == 1
        assert counters["shed_unavailable_total"] == 1
        assert counters["requests_total"] == stats["requests"] == 1

        router = ShardRouter(plan)
        router.kill(1)
        router.kill(2)
        router.submit(_task(0, 0.0, {1}))
        router.submit(_task(1, 0.0, {2}))
        for machine in (1, 2):
            router.revive(machine, now=1.0)
            gauges = router.fleet_registry().snapshot()["gauges"]
            assert gauges["parked_now"] == len(router.parked) == router.stats()["parked"]
        assert router.parked == []

    def test_revive_follows_global_park_order(self, plan):
        router = ShardRouter(plan)
        router.kill(3)
        router.kill(4)
        router.submit(_task(0, 0.0, {3, 4}))  # straddler: nothing alive anywhere
        router.submit(_task(1, 0.0, {3}))     # shard-local: its one machine is dead
        replaced = router.revive(3, now=1.0)
        assert [(r.task.tid, r.machine, r.start) for r in replaced] == [(0, 3, 1.0), (1, 3, 2.0)]


class TestOneTaskRecord:
    """Each request is recorded once, under its original task, on the
    shard that booked it — the scheduler alone sees the fragment."""

    def test_live_straddler_shard_schedule_carries_the_original_set(self):
        router = ShardRouter(ShardPlan.even(4, 2))
        decision = router.submit(_task(0, 0.0, {2, 3}))
        assert (decision.shard, decision.machine, decision.handoff) == (0, 2, False)
        assert decision.task.machines == frozenset({2, 3})
        sched = router.shard_schedule(0)
        assert sched.instance[0].machines == frozenset({2, 3})
        sched.validate()
        assert router.task(0).machines == frozenset({2, 3})
        assert "restricted" not in router.state_dict()

    def test_admission_shed_straddler_keeps_the_original_task(self):
        router = ShardRouter(ShardPlan.even(4, 2), max_queue_depth=1)
        assert router.submit(_task(0, 0.0, {2}, proc=5.0)).status == DISPATCHED
        decision = router.submit(_task(1, 0.0, {2, 3}, proc=5.0))
        assert (decision.status, decision.shard) == (SHED, 0)
        assert decision.task.machines == frozenset({2, 3})

    def test_snapshot_with_restricted_originals_recovers_them(self, tmp_path):
        """A snapshot written while the shards booked straddlers under
        fragment-restricted copies (the originals in the router's
        ``restricted`` list) recovers with one record per request,
        under the original set."""
        from repro.serve import Journal

        def wire(tid, machines, release=0.0, proc=1.0):
            return {
                "key": None, "machine_set": machines, "proc": proc,
                "release": release, "tid": tid,
            }

        def shard(tasks, placements, book):
            completions = {str(j): 0.0 for j in range(1, 5)}
            counts = {str(j): 0 for j in range(1, 5)}
            for _, machine, _, end in book:
                completions[str(machine)] = end
                counts[str(machine)] += 1
            return {
                "alive": [1, 2, 3, 4],
                "counters": {"n_dispatched": len(tasks), "n_requeued": 0, "n_shed": 0},
                "m": 4,
                "placements": placements,
                "scheduler": {
                    "book": book,
                    "completions": completions,
                    "last_release": 0.0,
                    "task_counts": counts,
                },
                "tasks": tasks,
            }

        state = {
            "counters": {"n_handoffs": 0, "n_shed": 0, "routed": 3},
            "down_shards": [],
            "intervals": [[1, 2], [3, 4]],
            "parked": [],
            "restricted": [wire(0, [2, 3]), wire(1, [1, 4])],
            "shards": [
                shard(
                    [wire(5, [2], proc=2.0), wire(0, [2])],
                    {"5": [2, 0.0], "0": [2, 2.0]},
                    [[5, 2, 0.0, 2.0], [0, 2, 2.0, 3.0]],
                ),
                shard([wire(1, [4])], {"1": [4, 0.0]}, [[1, 4, 0.0, 1.0]]),
            ],
        }
        with Journal(tmp_path, fsync="never") as journal:
            journal.write_snapshot({"dispatcher": state, "service": {}})
        with Journal(tmp_path, fsync="never") as journal:
            router = Dispatcher.recover(journal, into=ShardRouter(ShardPlan.even(4, 2))).dispatcher
        assert router.task(0).machines == frozenset({2, 3})
        assert router.task(1).machines == frozenset({1, 4})
        assert router.task(5).machines == frozenset({2})
        sets = {t.tid: t.machines for t in router.schedule().instance}
        assert sets == {0: frozenset({2, 3}), 1: frozenset({1, 4}), 5: frozenset({2})}
        assert router.shard_schedule(1).instance[0].machines == frozenset({1, 4})
        assert "restricted" not in router.state_dict()
        withdrawn = router.dispatchers[0].withdraw(0, now=1.0)
        assert withdrawn.machines == frozenset({2, 3})
        assert router.task(0) is None and 0 not in router.placements
