"""Unit tests for the write-ahead journal and crash recovery."""

import asyncio
import json
import tracemalloc

import numpy as np
import pytest

from repro.core import EFT
from repro.core.task import Task
from repro.serve import (
    Dispatcher,
    Journal,
    JournalCorruptError,
    JournalError,
    ServeConfig,
    ShardPlan,
    ShardRouter,
    build_service,
)
from repro.serve.journal import JournalRecord, decode_record, encode_record, recover
from repro.serve.protocol import task_to_wire
from repro.simulation.workload import WorkloadSpec, generate_workload


def _instance(seed: int = 0, m: int = 4, n: int = 30):
    spec = WorkloadSpec(m=m, n=n, lam=3.0, k=2, strategy="overlapping", case="uniform")
    return generate_workload(spec, rng=np.random.default_rng(seed))


def _fleet(m: int) -> ShardRouter:
    return ShardRouter(ShardPlan.single(m), EFT(m, tiebreak="min"))


def _journal_a_drive(root, inst, kill_at=None, fsync="never"):
    """Drive a one-shard fleet while journaling every transition; return it."""
    dispatcher = _fleet(inst.m)
    journal = Journal(root, fsync=fsync)
    tasks = list(inst)
    for i, task in enumerate(tasks):
        if kill_at is not None and i == kill_at:
            journal.append("kill", {"machine": 1}, commit=True)
            dispatcher.kill(1)
        journal.append(
            "submit",
            {"task": task_to_wire(task), "dedupe": f"t:{task.tid}"},
            commit=True,
        )
        dispatcher.submit(task)
    return dispatcher, journal


class TestRecordCodec:
    def test_roundtrip(self):
        line = encode_record(3, "submit", {"task": {"tid": 1}, "dedupe": "x:1"})
        record = decode_record(line)
        assert record == JournalRecord(seq=3, kind="submit", data={"task": {"tid": 1}, "dedupe": "x:1"})

    def test_bad_json_rejected(self):
        with pytest.raises(JournalCorruptError, match="undecodable"):
            decode_record("{not json")

    def test_non_object_rejected(self):
        with pytest.raises(JournalCorruptError, match="object"):
            decode_record("[1, 2]")

    def test_missing_field_rejected(self):
        line = encode_record(1, "kill", {"machine": 2})
        envelope = json.loads(line)
        del envelope["crc"]
        with pytest.raises(JournalCorruptError, match="missing"):
            decode_record(json.dumps(envelope))

    def test_crc_mismatch_rejected(self):
        line = encode_record(1, "kill", {"machine": 2})
        tampered = line.replace('"machine":2', '"machine":3')
        with pytest.raises(JournalCorruptError, match="CRC"):
            decode_record(tampered)

    def test_wrong_version_rejected(self):
        line = encode_record(1, "kill", {"machine": 2})
        envelope = json.loads(line)
        envelope["v"] = 99
        with pytest.raises(JournalCorruptError, match="version"):
            decode_record(json.dumps(envelope))

    def test_wal_format_pinned(self):
        """Two literal lines: the WAL format is frozen byte-for-byte."""
        task = {"tid": 7, "release": 0.5, "proc": 0.004, "machine_set": [2, 3], "key": None}
        assert encode_record(3, "submit", {"task": task, "dedupe": "c:7"}) == (
            '{"crc":3749934767,"data":{"dedupe":"c:7","task":{"key":null,'
            '"machine_set":[2,3],"proc":0.004,"release":0.5,"tid":7}},'
            '"kind":"submit","seq":3,"v":1}'
        )
        assert encode_record(4, "complete", {"tid": 7}) == (
            '{"crc":4083252951,"data":{"tid":7},"kind":"complete","seq":4,"v":1}'
        )

    @pytest.mark.parametrize("seq", [0, -1, 1.5, "3", True])
    def test_bad_seq_rejected(self, seq):
        line = encode_record(1, "kill", {"machine": 2})
        envelope = json.loads(line)
        envelope["seq"] = seq
        with pytest.raises(JournalCorruptError):
            decode_record(json.dumps(envelope))


class TestJournalFile:
    def test_append_reopen_roundtrip(self, tmp_path):
        with Journal(tmp_path, fsync="never") as journal:
            journal.append("kill", {"machine": 1})
            journal.append("revive", {"machine": 1, "now": 2.5}, commit=True)
            assert journal.seq == 2
        reopened = Journal(tmp_path, fsync="never")
        records = list(reopened.records())
        assert [(r.seq, r.kind) for r in records] == [(1, "kill"), (2, "revive")]
        assert reopened.seq == 2
        assert reopened.n_dropped_tail == 0
        reopened.close()

    def test_invalid_fsync_policy(self, tmp_path):
        with pytest.raises(JournalError, match="fsync"):
            Journal(tmp_path, fsync="sometimes")

    def test_invalid_batch_size(self, tmp_path):
        with pytest.raises(JournalError, match="batch_records"):
            Journal(tmp_path, batch_records=0)

    def test_append_after_close_raises(self, tmp_path):
        journal = Journal(tmp_path, fsync="never")
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.append("kill", {"machine": 1})

    def test_torn_tail_dropped_and_counted(self, tmp_path):
        with Journal(tmp_path, fsync="never") as journal:
            journal.append("kill", {"machine": 1}, commit=True)
            journal.append("revive", {"machine": 1, "now": 1.0}, commit=True)
        wal = tmp_path / "wal.jsonl"
        intact = wal.read_text("utf-8")
        # Crash mid-append: half a record, no trailing newline.
        wal.write_text(intact + encode_record(3, "kill", {"machine": 2})[:13], "utf-8")
        reopened = Journal(tmp_path, fsync="never")
        assert reopened.n_dropped_tail == 1
        assert [r.seq for r in reopened.records()] == [1, 2]
        assert reopened.seq == 2
        reopened.close()
        # The torn tail was compacted away: a second reopen is clean.
        again = Journal(tmp_path, fsync="never")
        assert again.n_dropped_tail == 0
        assert [r.seq for r in again.records()] == [1, 2]
        again.close()

    def test_corrupt_last_line_dropped_even_with_newline(self, tmp_path):
        with Journal(tmp_path, fsync="never") as journal:
            journal.append("kill", {"machine": 1}, commit=True)
        wal = tmp_path / "wal.jsonl"
        line = encode_record(2, "kill", {"machine": 2})
        wal.write_text(wal.read_text("utf-8") + line.replace('"machine":2', '"machine":3') + "\n")
        reopened = Journal(tmp_path, fsync="never")
        assert reopened.n_dropped_tail == 1
        assert [r.seq for r in reopened.records()] == [1]
        reopened.close()

    def test_mid_log_corruption_raises(self, tmp_path):
        with Journal(tmp_path, fsync="never") as journal:
            for machine in (1, 2, 3):
                journal.append("kill", {"machine": machine}, commit=True)
        wal = tmp_path / "wal.jsonl"
        lines = wal.read_text("utf-8").splitlines()
        lines[0] = lines[0].replace('"machine":1', '"machine":9')
        wal.write_text("\n".join(lines) + "\n", "utf-8")
        with pytest.raises(JournalCorruptError, match="CRC"):
            Journal(tmp_path, fsync="never")

    def test_sequence_gap_raises(self, tmp_path):
        # The gap must sit *before* an intact record — a gap at the very
        # tail is indistinguishable from a torn append and is dropped.
        wal = tmp_path / "wal.jsonl"
        wal.write_text(
            encode_record(1, "kill", {"machine": 1})
            + "\n"
            + encode_record(3, "kill", {"machine": 2})
            + "\n"
            + encode_record(4, "kill", {"machine": 3})
            + "\n",
            "utf-8",
        )
        with pytest.raises(JournalCorruptError, match="gap"):
            Journal(tmp_path, fsync="never")


def _count_fsyncs(monkeypatch) -> list[int]:
    calls: list[int] = []
    monkeypatch.setattr("repro.serve.journal.os.fsync", lambda fd: calls.append(fd))
    return calls


def _submit_data(tid: int) -> dict:
    task = {"tid": tid, "release": tid * 0.001, "proc": 0.004, "machine_set": [2, 3], "key": None}
    return {"task": task, "dedupe": f"c:{tid}"}


class TestBatchDurability:
    """``fsync="batch"`` fsyncs once per ``batch_records`` appends,
    however often the caller commits."""

    def test_per_record_commits_fsync_every_batch(self, tmp_path, monkeypatch):
        calls = _count_fsyncs(monkeypatch)
        journal = Journal(tmp_path, fsync="batch", batch_records=64)
        for tid in range(640):
            journal.append("submit", _submit_data(tid), commit=True)
        assert len(calls) == 10
        journal.close()
        assert len(calls) == 10  # nothing left unsynced

    def test_mixed_commit_stream_fsyncs_every_batch(self, tmp_path, monkeypatch):
        calls = _count_fsyncs(monkeypatch)
        journal = Journal(tmp_path, fsync="batch", batch_records=64)
        for tid in range(320):
            journal.append("submit", _submit_data(tid), commit=True)
            journal.append("complete", {"tid": tid})
        assert len(calls) == 640 // 64
        journal.close()

    def test_close_syncs_the_remainder(self, tmp_path, monkeypatch):
        calls = _count_fsyncs(monkeypatch)
        journal = Journal(tmp_path, fsync="batch", batch_records=64)
        for tid in range(70):
            journal.append("submit", _submit_data(tid), commit=True)
        assert len(calls) == 1
        journal.close()
        assert len(calls) == 2

    def test_commit_and_never_policies_unchanged(self, tmp_path, monkeypatch):
        calls = _count_fsyncs(monkeypatch)
        with Journal(tmp_path / "c", fsync="commit") as journal:
            journal.append("kill", {"machine": 1})
            journal.append("revive", {"machine": 1, "now": 1.0}, commit=True)
            assert len(calls) == 1
        assert len(calls) == 2  # close commits, and "commit" fsyncs every commit
        del calls[:]
        with Journal(tmp_path / "n", fsync="never") as journal:
            for tid in range(200):
                journal.append("submit", _submit_data(tid), commit=True)
        assert calls == []


class TestBoundedMemory:
    def test_append_keeps_no_copy_of_the_log(self, tmp_path):
        journal = Journal(tmp_path, fsync="never")
        payloads = [_submit_data(tid) for tid in range(20_000)]
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for data in payloads:
                journal.append("submit", data, commit=True)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            journal.close()
        assert after - before < 1_000_000
        assert list(journal.records()) == []  # only what was read back at open


class TestRecovery:
    def test_recovered_dispatcher_matches_live(self, tmp_path):
        inst = _instance(seed=1)
        live, journal = _journal_a_drive(tmp_path, inst, kill_at=10)
        journal.close()
        recovery = Dispatcher.recover(Journal(tmp_path, fsync="never"), into=_fleet(inst.m))
        assert recovery.dispatcher.placements == live.placements
        assert recovery.dispatcher.alive() == live.alive()
        assert recovery.n_replayed == len(inst) + 1  # submits + the kill
        assert recovery.n_dropped_tail == 0

    def test_recover_releases_the_replayed_log(self, tmp_path):
        inst = _instance(seed=6)
        live, journal = _journal_a_drive(tmp_path, inst, kill_at=5)
        journal.close()
        reopened = Journal(tmp_path, fsync="never")
        assert len(list(reopened.records())) == len(inst) + 1
        first = Dispatcher.recover(reopened, into=_fleet(inst.m))
        assert list(reopened.records()) == []
        reopened.close()
        second = Dispatcher.recover(Journal(tmp_path, fsync="never"), into=_fleet(inst.m))
        assert second.dispatcher.state_dict() == first.dispatcher.state_dict()
        assert second.dispatcher.placements == first.dispatcher.placements == live.placements
        assert second.n_replayed == first.n_replayed == len(inst) + 1

    def test_dedupe_cache_rebuilt(self, tmp_path):
        inst = _instance(seed=2, n=12)
        live, journal = _journal_a_drive(tmp_path, inst)
        journal.close()
        recovery = Dispatcher.recover(Journal(tmp_path, fsync="never"), into=_fleet(inst.m))
        assert set(recovery.dedupe) == {f"t:{task.tid}" for task in inst}
        for task in inst:
            decision = recovery.dedupe[f"t:{task.tid}"]
            assert decision.task == task
            assert decision.machine == live.placements[task.tid][0]

    def test_pending_excludes_completed(self, tmp_path):
        inst = _instance(seed=3, n=10)
        _, journal = _journal_a_drive(tmp_path, inst)
        done = [task.tid for task in list(inst)[:4]]
        for tid in done:
            journal.append("complete", {"tid": tid})
        journal.close()
        recovery = Dispatcher.recover(Journal(tmp_path, fsync="never"), into=_fleet(inst.m))
        assert recovery.completed == set(done)
        pending = recovery.pending()
        assert [tid for tid, _ in pending] == sorted(
            task.tid for task in inst if task.tid not in set(done)
        )
        for tid, machine in pending:
            assert machine == recovery.dispatcher.placements[tid][0]

    def test_snapshot_compacts_and_recovers(self, tmp_path):
        inst = _instance(seed=4, n=20)
        tasks = list(inst)
        live = _fleet(inst.m)
        journal = Journal(tmp_path, fsync="never")
        for task in tasks[:12]:
            journal.append("submit", {"task": task_to_wire(task)}, commit=True)
            live.submit(task)
        journal.write_snapshot({"dispatcher": live.state_dict(), "service": {}})
        assert not list(journal.records())  # WAL compacted to empty suffix
        for task in tasks[12:]:
            journal.append("submit", {"task": task_to_wire(task)}, commit=True)
            live.submit(task)
        journal.close()
        reopened = Journal(tmp_path, fsync="never")
        assert reopened.snapshot_seq == 12
        assert len(list(reopened.records())) == len(tasks) - 12
        recovery = Dispatcher.recover(reopened, into=_fleet(inst.m))
        assert recovery.dispatcher.placements == live.placements
        assert recovery.n_replayed == len(tasks) - 12

    def test_crash_between_snapshot_and_compaction_recovers(self, tmp_path, monkeypatch):
        """A crash after ``write_snapshot`` renamed the snapshot but
        before it compacted the WAL leaves records the snapshot already
        holds; reopening skips them and recovers the same state as an
        uninterrupted run."""
        inst = _instance(seed=4, n=20)
        tasks = list(inst)
        recovered = []
        for name, crash in (("clean", False), ("crashed", True)):
            live = _fleet(inst.m)
            journal = Journal(tmp_path / name, fsync="never")
            for task in tasks[:12]:
                journal.append("submit", {"task": task_to_wire(task)}, commit=True)
                live.submit(task)
            state = {"dispatcher": live.state_dict(), "service": {}}
            if crash:
                def die(self, records):
                    raise OSError("crashed before compaction")

                monkeypatch.setattr(Journal, "_rewrite_wal", die)
                with pytest.raises(OSError, match="compaction"):
                    journal.write_snapshot(state)
                monkeypatch.undo()
                journal = Journal(tmp_path / name, fsync="never")
            else:
                journal.write_snapshot(state)
            assert journal.snapshot_seq == 12
            assert list(journal.records()) == []
            for task in tasks[12:]:
                journal.append("submit", {"task": task_to_wire(task)}, commit=True)
                live.submit(task)
            journal.close()
            reopened = Journal(tmp_path / name, fsync="never")
            recovery = Dispatcher.recover(reopened, into=_fleet(inst.m))
            assert recovery.dispatcher.placements == live.placements
            assert recovery.n_replayed == len(tasks) - 12
            recovered.append(recovery.dispatcher.state_dict())
        assert recovered[0] == recovered[1]

    def test_replay_rejects_unknown_kind(self, tmp_path):
        journal = Journal(tmp_path, fsync="never")
        journal.append("launch-missiles", {}, commit=True)
        journal.close()
        with pytest.raises(JournalCorruptError, match="unknown"):
            recover(Journal(tmp_path, fsync="never"), lambda: Dispatcher(EFT(2, tiebreak="min")))

    def test_replayed_repeat_tid_is_an_error_and_changes_nothing(self, tmp_path):
        inst = _instance(seed=5, n=6)
        live, journal = _journal_a_drive(tmp_path, inst)
        state = live.state_dict()
        last = list(inst)[-1]
        journal.append("submit", {"task": task_to_wire(last)}, commit=True)
        journal.close()
        recovery = Dispatcher.recover(Journal(tmp_path, fsync="never"), into=_fleet(inst.m))
        assert recovery.n_replay_errors == 1
        assert recovery.dispatcher.state_dict() == state

    def test_per_task_redispatch_records_replay_as_one_task_batches(self, tmp_path):
        """A journal written before batched ``redispatch`` records — one
        ``{"tid": n}`` record per displaced task — rebuilds the state
        the same ops reach through one-task batches."""
        tasks = [
            Task(tid=tid, release=float(tid // 6), proc=1.0, machines=frozenset({1, 2}))
            for tid in range(9)
        ]
        live = _fleet(2)
        journal = Journal(tmp_path, fsync="never")
        for task in tasks[:6]:  # machine 1 runs 0, then queues 2 and 4
            journal.append("submit", {"task": task_to_wire(task)})
            live.submit(task)
        journal.append("kill", {"machine": 1, "now": 0.5})
        live.kill(1)
        for tid in (2, 4):
            journal.append("redispatch", {"tid": tid, "now": 0.5})
            live.redispatch([live.task(tid)], 0.5)
        for task in tasks[6:]:
            journal.append("submit", {"task": task_to_wire(task)})
            live.submit(task)
        journal.close()
        recovery = Dispatcher.recover(Journal(tmp_path, fsync="never"), into=_fleet(2))
        assert recovery.dispatcher.placements[4] == (2, 4.0)
        assert recovery.n_replay_errors == 0
        assert recovery.dispatcher.state_dict() == live.state_dict()

    def test_replay_counts_rejected_operations(self, tmp_path):
        inst = _instance(seed=5, n=6)
        _, journal = _journal_a_drive(tmp_path, inst)
        # The live path journaled the op, then the scheduler rejected it
        # (out-of-order release); replay must absorb the same rejection.
        stale = list(inst)[0]
        journal.append("submit", {"task": task_to_wire(stale)}, commit=True)
        journal.close()
        recovery = Dispatcher.recover(Journal(tmp_path, fsync="never"), into=_fleet(inst.m))
        assert recovery.n_replay_errors == 1
        assert len(recovery.dispatcher.placements) == len(inst)


#: registry counters the service layer, not the decision path, drives
_SERVICE_SIDE = ("completed_total", "errors_total", "dedupe_hits_total", "journal_", "recovery_")


def _decision_counts(service):
    """The decision-path counts of ``service``: its ``stats()`` view
    and its registry counters."""
    stats = service.stats()
    keys = ("requests", "dispatched", "shed", "requeued", "handoffs", "parked", "shards")
    counters = {
        name: value
        for name, value in stats["metrics"]["counters"].items()
        if not name.rsplit("/", 1)[-1].startswith(_SERVICE_SIDE)
    }
    return {key: stats[key] for key in keys}, counters


class TestRecoveredCounts:
    """A fleet rebuilt from a snapshot plus the WAL suffix reports the
    live fleet's decision-path counts, in ``stats()`` and the registry
    alike: the counts live in the registry only, and the snapshot
    carries every registry's counters."""

    @pytest.mark.parametrize(
        "config, sets, killed",
        [
            (dict(m=3), [None], [1]),
            # straddling sets, admission sheds and a dead shard 0, so
            # sheds, requeues and handoffs all count
            (dict(m=4, shards=2, max_queue_depth=2), [{2, 3}, {1, 2}, {3, 4}], [1, 2]),
        ],
    )
    def test_snapshot_plus_wal_recovery_keeps_every_count(self, tmp_path, config, sets, killed):
        config = ServeConfig(
            **config, journal_dir=str(tmp_path), journal_snapshot_every=5, time_scale=1e3
        )

        async def live():
            service = build_service(config)
            await service.start()
            try:
                for i in range(12):
                    machines = sets[i % len(sets)]
                    task = Task(i, 0.01 * i, 1.0, None if machines is None else frozenset(machines))
                    assert service._submit({"op": "submit", **task_to_wire(task)})["ok"]
                for machine in killed:
                    service.kill(machine)
                return _decision_counts(service)
            finally:
                await service.stop()

        stats, counters = asyncio.run(live())
        assert stats["requeued"] > 0
        recovered = build_service(config)
        try:
            assert recovered.recovery.seq > recovered.journal.snapshot_seq > 0
            assert _decision_counts(recovered) == (stats, counters)
        finally:
            recovered.journal.close()

    @pytest.mark.parametrize("snapshot_every", [5, 0])
    @pytest.mark.parametrize("shards", [1, 2])
    def test_recovery_keeps_completed_total(self, tmp_path, shards, snapshot_every):
        """Pre-crash completions come back in ``stats()`` and in each
        shard's ``completed_total`` counter, from snapshot plus WAL and
        from the WAL alone."""
        config = ServeConfig(
            m=4, shards=shards, journal_dir=str(tmp_path),
            journal_snapshot_every=snapshot_every, time_scale=0.001,
        )

        def completed(service):
            per_shard = [m.completed.value for m in service.router.shard_metrics]
            return service.stats()["completed"], service.registry().count("completed_total"), per_shard

        async def live():
            service = build_service(config)
            await service.start()
            try:
                for i in range(12):
                    task = Task(i, 0.01 * i, 1.0, frozenset({i % 4 + 1}))
                    assert service._submit({"op": "submit", **task_to_wire(task)})["ok"]
                assert await service.drain() == 12
                return completed(service)
            finally:
                await service.stop()

        counts = asyncio.run(live())
        assert counts[:2] == (12, 12) and sum(counts[2]) == 12
        recovered = build_service(config)
        try:
            assert (recovered.journal.snapshot_seq > 0) == (snapshot_every > 0)
            assert completed(recovered) == counts
        finally:
            recovered.journal.close()

    def test_snapshot_with_int_counts_loads_them_into_the_counters(self):
        """A snapshot that kept the decision counts as plain ints (no
        ``metrics`` blocks) restores them into the registry counters."""
        plan = ShardPlan.even(4, 2)
        live = ShardRouter(plan, "eft-min", max_queue_depth=1, on_unavailable="shed")
        live.kill(1)
        live.kill(2)
        for i, machines in enumerate([{3}, {3}, {1, 2}, {2, 3}, {4}]):
            live.submit(Task(i, 0.0, 5.0, frozenset(machines)))
        state = live.state_dict()
        legacy = dict(state, counters={
            "routed": live.stats()["requests"],
            "n_handoffs": live.stats()["handoffs"],
            "n_shed": live.router_registry.count("shed_total"),
        })
        del legacy["metrics"]
        legacy["shards"] = []
        for shard_state, row in zip(state["shards"], live.stats()["shards"]):
            shard_state = dict(shard_state, counters={
                "n_dispatched": row["dispatched"],
                "n_shed": row["shed"],
                "n_requeued": row["requeued"],
            })
            del shard_state["metrics"]
            legacy["shards"].append(shard_state)
        restored = ShardRouter(plan, "eft-min", max_queue_depth=1, on_unavailable="shed")
        restored.load_state_dict(legacy)
        stats = live.stats()
        assert stats["shed"] > 0 and stats["handoffs"] > 0
        assert restored.stats() == stats
