"""Trace format: round trips, replay, versioning."""

import numpy as np
import pytest

from repro.campaigns import (
    TRACE_VERSION,
    dump_trace,
    dumps_trace,
    load_trace,
    loads_trace,
    make_scheduler,
    record,
    replay_into,
)
from repro.core import EFT, Instance, eft_schedule
from repro.simulation.workload import WorkloadSpec, generate_workload


def _schedule(m=5, n=40, seed=3, tiebreak="min"):
    spec = WorkloadSpec(m=m, n=n, lam=2.5, k=2, strategy="overlapping", case="shuffled", s=1.0)
    inst = generate_workload(spec, rng=np.random.default_rng(seed))
    return eft_schedule(inst, tiebreak=tiebreak)


class TestRoundTrip:
    def test_loads_dumps_identity(self):
        trace = record(_schedule(), scheduler="EFT-min", meta={"note": "t"})
        text = dumps_trace(trace)
        assert loads_trace(text) == trace
        # serialisation is stable: dumps(loads(s)) == s byte for byte
        assert dumps_trace(loads_trace(text)) == text

    def test_float_exactness(self):
        trace = record(_schedule(seed=9))
        back = loads_trace(dumps_trace(trace))
        for a, b in zip(trace.records, back.records):
            assert a.release == b.release and a.start == b.start  # exact, not approx

    def test_file_roundtrip(self, tmp_path):
        trace = record(_schedule(), scheduler="EFT-min")
        path = dump_trace(trace, tmp_path / "sub" / "t.trace.jsonl")
        assert load_trace(path) == trace

    def test_unrestricted_machine_set(self):
        inst = Instance.build(3, releases=[0, 0.5], procs=1.0)
        trace = record(eft_schedule(inst))
        back = loads_trace(dumps_trace(trace))
        assert back.records[0].machine_set is None
        assert back.instance().tasks[0].machines is None


class TestStructure:
    def test_schedule_reconstruction(self):
        sched = _schedule()
        trace = record(sched, scheduler="EFT-min")
        rebuilt = trace.schedule()
        assert rebuilt.same_placements(sched)
        assert trace.n == len(sched)
        assert trace.instance().n == len(sched)

    def test_schedule_validates(self):
        """A loaded trace whose placement starts before its release is
        rejected when the schedule is rebuilt."""
        inst = Instance.build(2, releases=[0, 0], procs=1.0)
        text = dumps_trace(record(eft_schedule(inst)))
        assert '"start": 0.0' in text
        tampered = loads_trace(text.replace('"start": 0.0', '"start": -5.0', 1))
        with pytest.raises(ValueError):
            tampered.schedule()

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="not a repro-trace"):
            loads_trace('{"format": "other"}\n')
        with pytest.raises(ValueError, match="empty"):
            loads_trace("")

    def test_rejects_future_version(self):
        trace = record(_schedule(n=4))
        text = dumps_trace(trace).replace(f'"version": {TRACE_VERSION}', '"version": 99')
        with pytest.raises(ValueError, match="version"):
            loads_trace(text)

    def test_rejects_truncated(self):
        text = dumps_trace(record(_schedule(n=6)))
        truncated = "\n".join(text.splitlines()[:-2]) + "\n"
        with pytest.raises(ValueError, match="declares n="):
            loads_trace(truncated)


class TestReplay:
    def test_same_scheduler_reproduces(self):
        sched = _schedule(tiebreak="min")
        trace = record(sched, scheduler="EFT-min")
        replayed = replay_into(EFT(trace.m, tiebreak="min"), trace)
        assert trace.schedule().same_placements(replayed)

    def test_different_scheduler_differs(self):
        trace = record(_schedule(tiebreak="min"), scheduler="EFT-min")
        replayed = replay_into(EFT(trace.m, tiebreak="max"), trace)
        assert not trace.schedule().same_placements(replayed)

    def test_rejects_m_mismatch(self):
        trace = record(_schedule(m=5))
        with pytest.raises(ValueError, match="m="):
            replay_into(EFT(4), trace)

    def test_rejects_used_scheduler(self):
        trace = record(_schedule())
        used = EFT(trace.m)
        used.run(trace.instance())
        with pytest.raises(ValueError, match="fresh"):
            replay_into(used, trace)


class TestMakeScheduler:
    @pytest.mark.parametrize(
        "name", ["eft-min", "eft-max", "eft-rand", "least-work", "round-robin", "random", "EFT-Min"]
    )
    def test_known_names(self, name):
        sched = make_scheduler(name, m=4, seed=1)
        assert sched.m == 4

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("sjf", m=4)
