"""The serve tier keeps each request once.

The dispatcher books every placement (``Dispatcher.placements`` and its
task map); the scheduler under it is driven through the non-recording
``place``, so its own placement books stay empty.  Decoded machine sets
are interned at the wire boundary, so tasks with the same set share
one frozenset — on the live path and through journal replay alike.
"""

import pytest

from repro.serve import Journal, ShardPlan, ShardRouter
from repro.serve import protocol
from repro.serve.driver import build_drive_instance
from repro.serve.journal import recover
from repro.serve.protocol import decode_frame, encode_frame, task_from_wire, task_to_wire

M = 8
N = 2000


def _stream(n: int = N):
    return build_drive_instance(source="spec", m=M, n=n, k=2, proc=0.004, rate=1800, seed=3)


def _wire(task):
    """``task`` as the server decodes it off a submit frame."""
    frame = encode_frame({"op": "submit", **task_to_wire(task)})
    return task_from_wire(decode_frame(frame[4:]))


def _plan(n_shards: int) -> ShardPlan:
    return ShardPlan.single(M) if n_shards == 1 else ShardPlan.even(M, n_shards)


@pytest.mark.parametrize("n_shards", [1, 2])
def test_scheduler_books_stay_empty(n_shards):
    router = ShardRouter(_plan(n_shards), "eft-min")
    tasks = [_wire(t) for t in _stream()]
    for task in tasks:
        router.submit(task)
    for d in router.dispatchers:
        assert d.scheduler._tasks == []
        assert d.scheduler._machines == d.scheduler._starts == []
    assert sum(len(d.placements) for d in router.dispatchers) == N
    assert set(router.placements) == {t.tid for t in tasks}


def test_same_set_tasks_share_one_frozenset():
    tasks = [_wire(t) for t in _stream()]
    by_set: dict = {}
    for task in tasks:
        by_set.setdefault(task.machines, set()).add(id(task.machines))
    assert len(by_set) > 1
    assert all(len(ids) == 1 for ids in by_set.values())


def test_intern_cache_overflow_still_decodes(monkeypatch):
    monkeypatch.setattr(protocol, "_INTERN_IDS", 16)
    monkeypatch.setattr(protocol, "_interned", {})
    monkeypatch.setattr(protocol, "_interned_ids", 0)
    sets = [[a, b] for a in range(1, M + 1) for b in range(a + 1, M + 1)]
    for tid, machine_set in enumerate(sets * 3):
        task = task_from_wire({"tid": tid, "release": 0.0, "proc": 1.0, "machine_set": machine_set})
        assert task.machines == frozenset(machine_set)
    assert protocol._interned_ids <= 16


@pytest.mark.parametrize("n_shards", [1, 2])
def test_recovered_books_equal_live(tmp_path, n_shards):
    live = ShardRouter(_plan(n_shards), "eft-min")
    journal = Journal(tmp_path, fsync="never")
    for i, task in enumerate(_stream(600)):
        now = task.release
        if i == 200:  # a failure: queued work on machines 1 and 2 moves or parks
            for machine in (1, 2):
                journal.append("kill", {"machine": machine, "now": now}, commit=True)
                live.kill(machine)
            for tid, (machine, start) in sorted(live.placements.items()):
                if machine in (1, 2) and start > now:
                    journal.append("redispatch", {"tid": tid, "now": now}, commit=True)
                    live.redispatch([live.task(tid)], now)
        if i == 400:
            for machine in (1, 2):
                journal.append("revive", {"machine": machine, "now": now}, commit=True)
                live.revive(machine, now)
        journal.append("submit", {"task": task_to_wire(task)}, commit=True)
        live.submit(_wire(task))
    journal.close()

    blank = ShardRouter(_plan(n_shards), "eft-min")
    recovered = recover(Journal(tmp_path, fsync="never"), lambda: blank).dispatcher
    assert recovered.state_dict() == live.state_dict()
    for a, b in zip(recovered.dispatchers, live.dispatchers):
        assert a._tasks == b._tasks
        assert a.scheduler._tasks == b.scheduler._tasks == []
        assert a.scheduler._machines == b.scheduler._machines == []
        assert a.scheduler._starts == b.scheduler._starts == []
    assert recovered.parked == live.parked
    assert live.stats()["requeued"] > 0
    sets = {}
    for d in recovered.dispatchers:
        for task in d._tasks.values():
            assert sets.setdefault(task.machines, task.machines) is task.machines
