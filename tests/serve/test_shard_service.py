"""Integration tests: the serve frontend as a 3-shard fleet.

A single server is the one-shard fleet, so every sharded behaviour —
routing, cross-shard handoff, fleet stats, the router wire ops, the
journal — runs through the one :class:`ServeService`.  All async tests
run their own event loop via ``asyncio.run`` (no asyncio pytest
plugin, matching the rest of the serve suite).
"""

import asyncio
import json
import tempfile
from pathlib import Path

import pytest

from repro.core.task import Task
from repro.serve import (
    PROTOCOL_VERSION,
    Dispatcher,
    Journal,
    ServeConfig,
    ServeService,
    ShardPlan,
    ShardRouter,
    build_drive_instance,
    build_service,
    drive,
    read_frame,
    run_loopback,
    task_to_wire,
    write_frame,
)

FAST = dict(m=6, n=60, rate=400.0, k=2, strategy="disjoint", proc=0.004, seed=42)
THREE = dict(m=6, shards=3)


def _fast_instance(**overrides):
    return build_drive_instance(**{"source": "spec", **FAST, **overrides})


def _task(tid, machines, release=0.0, proc=0.004):
    return Task(tid=tid, release=release, proc=proc, machines=frozenset(machines))


async def _with_service(config, fn):
    """Run ``fn(service, rpc)`` against a started service listening on a
    unix socket in a temp dir; ``rpc(message)`` is one request/response
    round trip on a shared connection."""
    service = build_service(config)
    await service.start()
    try:
        with tempfile.TemporaryDirectory(prefix="repro-shard-test-") as tmp:
            socket_path = str(Path(tmp) / "shard.sock")
            server = await asyncio.start_unix_server(service.handle_connection, path=socket_path)
            async with server:
                reader, writer = await asyncio.open_unix_connection(socket_path)

                async def rpc(message):
                    await write_frame(writer, message)
                    return await read_frame(reader)

                try:
                    return await fn(service, rpc, socket_path)
                finally:
                    writer.close()
                    await writer.wait_closed()
    finally:
        await service.stop()


class TestShardedService:
    def test_drive_matches_single_dispatcher(self):
        """The 3-shard frontend serves the standard driver unchanged
        and, on a disjoint plan, places exactly like one dispatcher."""
        inst = _fast_instance()

        async def go(service, rpc, socket_path):
            return await drive(inst, socket_path=socket_path, time_scale=1.0)

        config = ServeConfig(**THREE, align_k=FAST["k"])
        report = asyncio.run(_with_service(config, go))
        single = run_loopback(inst, ServeConfig(m=FAST["m"]), target_rate=FAST["rate"]).report
        assert report.n_errors == 0
        assert report.n_acked == report.n_sent == FAST["n"]
        assert report.assignments_digest == single.assignments_digest

    def test_route_op_returns_plan(self):
        async def go(service, rpc, socket_path):
            return await rpc({"op": "route"})

        response = asyncio.run(_with_service(ServeConfig(**THREE, align_k=2), go))
        assert response["ok"]
        plan = ShardPlan.from_json(response["plan"])
        assert plan.intervals == ((1, 2), (3, 4), (5, 6))

    def test_version_mismatch_rejected_current_accepted(self):
        async def go(service, rpc, socket_path):
            mismatched = await rpc({"op": "ping", "v": PROTOCOL_VERSION + 1})
            current = await rpc({"op": "ping", "v": PROTOCOL_VERSION})
            return mismatched, current

        mismatched, current = asyncio.run(_with_service(ServeConfig(**THREE), go))
        assert mismatched["ok"] is False
        assert "version mismatch" in mismatched["error"]
        assert mismatched["v"] == PROTOCOL_VERSION  # this end's version echoed
        assert current["ok"] and current["op"] == "pong" and current["shards"] == 3

    def test_kill_revive_ops_cross_shard_handoff(self):
        """Fault injection through the frontend: killing the whole
        owner-side fragment of a straddling set hands the next submit
        off to the neighbour shard."""

        async def go(service, rpc, socket_path):
            killed = await rpc({"op": "kill", "machine": 2})
            assert killed["ok"]
            submit = await rpc({"op": "submit", **task_to_wire(_task(0, {2, 3}))})
            assert submit["ok"]
            assert submit["machine"] == 3
            assert submit["shard"] == 1 and submit["handoff"] is True
            revived = await rpc({"op": "revive", "machine": 2})
            assert revived["ok"] and revived["unparked"] == 0
            stats = (await rpc({"op": "stats"}))["stats"]
            assert (await rpc({"op": "drain"}))["ok"]
            return stats

        stats = asyncio.run(_with_service(ServeConfig(**THREE), go))  # shards {1,2},{3,4},{5,6}
        assert stats["handoffs"] == 1
        assert stats["metrics"]["counters"]["router/router_handoffs_total"] == 1

    def test_whole_set_down_parks_then_revive_completes(self):
        async def go(service, rpc, socket_path):
            await rpc({"op": "kill", "machine": 1})
            await rpc({"op": "kill", "machine": 2})
            parked = await rpc({"op": "submit", **task_to_wire(_task(0, {1, 2}))})
            assert parked["status"] == "parked"
            revived = await rpc({"op": "revive", "machine": 2})
            assert revived["unparked"] == 1
            return await rpc({"op": "drain"})

        drained = asyncio.run(_with_service(ServeConfig(**THREE), go))
        assert drained["completed"] == 1

    def test_fleet_stats_rollup_members(self):
        inst = _fast_instance(n=30)

        async def go(service, rpc, socket_path):
            report = await drive(inst, socket_path=socket_path, time_scale=1.0)
            return report, service.stats()

        report, stats = asyncio.run(_with_service(ServeConfig(**THREE, align_k=FAST["k"]), go))
        counters = stats["metrics"]["counters"]
        assert counters["dispatched_total"] == 30
        per_shard = [counters.get(f"shard{s}/dispatched_total", 0) for s in range(3)]
        assert sum(per_shard) == 30
        assert stats["completed"] == 30
        assert [s["machines"] for s in stats["shards"]] == [[1, 2], [3, 4], [5, 6]]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="shard"):
            ServeConfig(m=4, shards=0)
        with pytest.raises(ValueError, match="time_scale"):
            ServeConfig(m=4, shards=2, time_scale=0.0)
        assert ShardPlan.cut(6, 3, align_k=2) == ShardPlan.aligned(6, 2, 3)
        assert ShardPlan.cut(6, 1) == ShardPlan.single(6)
        # Explicit intervals: build the plan and the service directly.
        service = ServeService(ShardRouter(ShardPlan(m=4, intervals=((1, 1), (2, 4)))))
        assert service.router.plan.intervals == ((1, 1), (2, 4))
        assert service.stats()["m"] == 4


class TestJournaledFleet:
    @pytest.mark.parametrize("snapshot_every", [0, 4])
    def test_recovered_fleet_matches_uninterrupted(self, tmp_path, snapshot_every):
        """Journal + dedupe for any shard count: a 3-shard service
        restarted on its journal (WAL replay, or snapshot restore plus
        the WAL suffix) rebuilds the router's state exactly, router ops
        included, and answers a retried submit from the rebuilt dedupe
        cache."""
        config = ServeConfig(
            **THREE,
            journal_dir=str(tmp_path / "j"),
            journal_fsync="never",
            journal_snapshot_every=snapshot_every,
            time_scale=0.05,
        )

        async def go(service, rpc, socket_path):
            for tid, machines in enumerate([{1, 2}, {2, 3}, {3, 4}, {5, 6}, {2, 3}]):
                wire = task_to_wire(_task(tid, machines, release=0.01 * tid, proc=1.0))
                assert (await rpc({"op": "submit", **wire, "dedupe": f"k{tid}"}))["ok"]
            assert (await rpc({"op": "kill", "machine": 2}))["ok"]
            assert (await rpc({"op": "detach-shard", "shard": 2}))["down"] == [2]
            wire = task_to_wire(_task(9, {5, 6}, release=0.1, proc=1.0))
            assert (await rpc({"op": "submit", **wire}))["status"] == "parked"
            assert (await rpc({"op": "reattach-shard", "shard": 2}))["unparked"] == 1
            # Finish the work, so the restart owes no service (a request
            # re-enqueued on the dead machine would be re-placed).
            assert (await rpc({"op": "drain"}))["completed"] == 6
            return service.router.state_dict(), await rpc(
                {"op": "submit", **task_to_wire(_task(1, {2, 3})), "dedupe": "k1"}
            )

        live_state, first_retry = asyncio.run(_with_service(config, go))

        async def again(service, rpc, socket_path):
            stats = (await rpc({"op": "stats"}))["stats"]
            retry = await rpc({"op": "submit", **task_to_wire(_task(1, {2, 3})), "dedupe": "k1"})
            return service.router.state_dict(), stats, retry

        recovered_state, stats, retry = asyncio.run(_with_service(config, again))
        assert recovered_state == live_state
        assert stats["recovered"]["replayed"] > 0
        if snapshot_every:
            assert stats["journal"]["snapshot_seq"] > 0  # restored from a snapshot
        assert stats["down_shards"] == []
        assert retry == first_retry
        assert retry["shard"] == 0 and retry["status"] == "dispatched"

    def test_kill_journals_one_batch(self, tmp_path):
        """A kill journals one ``kill`` record and one ``redispatch``
        record carrying the drained queue's tids in queue order; a
        restart on the journal rebuilds the live router exactly."""
        config = ServeConfig(
            m=2, journal_dir=str(tmp_path / "j"), journal_fsync="never", time_scale=10.0
        )
        # Machine 1 holds 0 (in flight), then 1, 2 and 4 queued; 3 loads
        # machine 2, so 4 re-places there and 1, 2 park.
        stream = [({1}, 1.0), ({1}, 1.0), ({1}, 1.0), ({2}, 5.0), ({1, 2}, 1.0)]

        async def go(service, rpc, socket_path):
            for tid, (machines, proc) in enumerate(stream):
                wire = task_to_wire(_task(tid, machines, proc=proc))
                assert (await rpc({"op": "submit", **wire}))["ok"]
            seq = service.journal.seq
            assert (await rpc({"op": "kill", "machine": 1}))["displaced"] == 3
            assert service.journal.seq == seq + 2
            return seq, service.router.state_dict()

        seq, live_state = asyncio.run(_with_service(config, go))
        with Journal(tmp_path / "j", fsync="never") as journal:
            records = [r for r in journal.records() if r.seq > seq]
            recovery = Dispatcher.recover(journal, into=ShardRouter(ShardPlan.single(2)))
        assert [r.kind for r in records] == ["kill", "redispatch"]
        assert records[1].data["tids"] == [1, 2, 4]
        assert [t.tid for t in recovery.dispatcher.parked] == [1, 2]
        assert recovery.dispatcher.placements[4][0] == 2
        recovered = json.dumps(recovery.dispatcher.state_dict(), sort_keys=True)
        assert recovered == json.dumps(live_state, sort_keys=True)

    def test_repeated_tid_answered_with_an_error(self):
        async def go(service, rpc, socket_path):
            wire = task_to_wire(_task(0, {1, 2}))
            first = await rpc({"op": "submit", **wire})
            again = await rpc({"op": "submit", **wire})
            return first, again, service.registry().snapshot()

        first, again, snap = asyncio.run(_with_service(ServeConfig(**THREE), go))
        assert first["ok"] and first["status"] == "dispatched"
        assert again["ok"] is False and "duplicate task id 0" in again["error"]
        assert snap["counters"]["errors_total"] == 1

    @pytest.mark.parametrize(
        "message",
        [
            {"op": "kill", "machine": 0},
            {"op": "kill", "machine": 7},
            {"op": "revive", "machine": -1},
            {"op": "revive", "machine": 99},
            {"op": "detach-shard", "shard": 3},
            {"op": "reattach-shard", "shard": -1},
        ],
    )
    def test_out_of_range_ops_rejected_before_journal_append(self, tmp_path, message):
        config = ServeConfig(**THREE, journal_dir=str(tmp_path / "j"), journal_fsync="never")

        async def go(service, rpc, socket_path):
            seq = service.journal.seq
            response = await rpc(message)
            return response, service.journal.seq - seq

        response, appended = asyncio.run(_with_service(config, go))
        assert response["ok"] is False and "out" in response["error"]
        assert appended == 0


@pytest.mark.parametrize("shards", [1, 3])
def test_requests_counts_each_submit_once(shards):
    """Failure redispatches and unparks re-place work but are not new
    requests: ``stats()["requests"]`` counts submits only."""

    async def go():
        service = build_service(ServeConfig(m=6, shards=shards, time_scale=0.05))
        await service.start()
        try:
            for tid in range(3):
                assert service.submit(_task(tid, {1, 2}, proc=1.0)).status == "dispatched"
            assert service.kill(1) >= 1  # displaced work is redispatched to 2
            assert service.stats()["requests"] == 3
            assert service.stats()["requeued"] >= 1
            assert service.submit(_task(3, {1}, release=0.1, proc=1.0)).status == "parked"
            assert service.revive(1) == 1
            stats = service.stats()
            assert stats["requests"] == 4
            assert stats["parked"] == 0
        finally:
            await service.stop()

    asyncio.run(go())
