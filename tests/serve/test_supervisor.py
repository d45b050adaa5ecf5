"""Tests for shard supervision and crash recovery.

The multiprocessing cases spawn real shard servers, SIGKILL one, and
assert the acceptance property of the tentpole: the killed-and-
recovered run's merged assignment digest is byte-identical to an
uninterrupted run's.  Workloads stay tiny (m=4, 2 shards, n=80) so
each case runs in a few seconds.
"""

import pytest

from repro.chaos import ChaosConfig
from repro.serve import (
    LoopbackResult,
    ServeConfig,
    ShardSupervisor,
    build_drive_instance,
    run_loopback,
)

FAST = dict(m=4, n=80, rate=400.0, k=2, strategy="disjoint", proc=0.004, seed=42)


def _fast_instance():
    return build_drive_instance(source="spec", **FAST)


def _shard_config(tmp, sid):
    return dict(
        m=2,
        scheduler="eft-min",
        seed=0,
        time_scale=1.0,
        journal_dir=str(tmp / f"journal{sid}"),
        journal_fsync="never",
    )


class TestShardSupervisor:
    def test_start_kill_poll_restart(self, tmp_path):
        supervisor = ShardSupervisor()
        supervisor.add_shard(0, _shard_config(tmp_path, 0), str(tmp_path / "s0.sock"))
        try:
            supervisor.start_all()
            assert supervisor.alive(0)
            assert supervisor.poll() == []
            supervisor.kill(0)
            assert supervisor.poll() == [0]
            assert not supervisor.alive(0)
            supervisor.restart(0)
            assert supervisor.alive(0)
            assert supervisor.poll() == []
            stats = supervisor.stats()
            assert stats["restarts"] == {0: 1}
            assert len(stats["recovery_seconds"]) == 1
            assert stats["recovery_seconds"][0] > 0
        finally:
            supervisor.stop_all()

    def test_restart_limit_enforced(self, tmp_path):
        supervisor = ShardSupervisor(restart_limit=1)
        supervisor.add_shard(0, _shard_config(tmp_path, 0), str(tmp_path / "s0.sock"))
        try:
            supervisor.start_all()
            supervisor.kill(0)
            supervisor.restart(0)
            supervisor.kill(0)
            with pytest.raises(RuntimeError, match="crash-looping"):
                supervisor.restart(0)
        finally:
            supervisor.stop_all()

    def test_unknown_shard_rejected(self, tmp_path):
        supervisor = ShardSupervisor()
        with pytest.raises(KeyError):
            supervisor.start(3)


class TestCrashRecoveryDigest:
    def test_process_fleet_matches_single_dispatcher(self):
        """Theorem 6 across processes: one server process per shard on a
        disjoint plan places exactly like the single dispatcher."""
        inst = _fast_instance()
        single = run_loopback(inst, ServeConfig(m=FAST["m"]), target_rate=FAST["rate"]).report
        fleet = run_loopback(
            inst, ServeConfig(m=FAST["m"]), shards=2, target_rate=FAST["rate"]
        ).report
        for report in (single, fleet):
            assert report.n_errors == 0
            assert report.n_acked == report.n_sent == FAST["n"]
        assert fleet.assignments_digest == single.assignments_digest

    def test_killed_shard_recovers_to_identical_digest(self, tmp_path):
        """Tentpole acceptance: SIGKILL a shard mid-drive; after journal
        replay the merged digest byte-matches the uninterrupted run."""
        inst = _fast_instance()
        baseline = run_loopback(
            inst, ServeConfig(m=FAST["m"]), shards=2, target_rate=FAST["rate"]
        ).report
        result = run_loopback(
            inst,
            ServeConfig(m=FAST["m"], journal_fsync="never"),
            shards=2,
            target_rate=FAST["rate"],
            kill_shard=0,
            kill_after=0.4,
        )
        assert isinstance(result, LoopbackResult)
        assert result.lost == 0
        assert result.double_dispatched == 0
        assert result.killed_shards == [0]
        assert result.restarts[0] == 1
        assert len(result.recovery_seconds) == 1
        assert result.report.assignments_digest == baseline.assignments_digest

    def test_no_kill_no_chaos_matches_plain_sharded_run(self, tmp_path):
        inst = _fast_instance()
        baseline = run_loopback(
            inst, ServeConfig(m=FAST["m"]), shards=2, target_rate=FAST["rate"]
        ).report
        result = run_loopback(
            inst,
            ServeConfig(m=FAST["m"], journal_fsync="never"),
            shards=2,
            target_rate=FAST["rate"],
            chaos=ChaosConfig(),
        )
        assert result.lost == 0
        assert result.double_dispatched == 0
        assert result.killed_shards == []
        assert result.report.assignments_digest == baseline.assignments_digest
