"""Versioned workload traces: record, load, replay.

A *trace* captures everything needed to rerun a scheduling experiment
bit-for-bit: every task's ``(tid, release, proc, machine_set, key)``
plus the placement ``(machine, start)`` the recorded scheduler chose.
Any immediate-dispatch scheduler can then :func:`replay_into` the same
workload — the apples-to-apples comparison setup of the SRPT and
unrelated-machines baselines in PAPERS.md — and the recorded
placements double as a regression fixture (see
:mod:`repro.campaigns.goldens`).

Format (JSONL, one JSON document per line)::

    {"format": "repro-trace", "version": 1, "m": 4, "scheduler": "EFT-Min",
     "n": 2, "meta": {...}}
    {"tid": 0, "release": 0.0, "proc": 1.0, "machine_set": [1, 2],
     "key": null, "machine": 1, "start": 0.0}
    {"tid": 1, ...}

Guarantees:

* **round trip** — ``loads(dumps(t)) == t`` and ``dumps(loads(s)) == s``
  for any trace ``s`` produced by :func:`dumps` (floats are emitted
  with ``repr``, which round-trips IEEE doubles exactly);
* **stable bytes** — the line layout is fixed (no hash randomisation,
  no dict-order dependence), so equal traces serialise to equal bytes,
  which is what lets golden traces assert byte-identical placements.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..core.dispatch import ImmediateDispatchScheduler
from ..core.schedule import Schedule
from ..core.task import Instance, Task

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "Trace",
    "TraceRecord",
    "dump",
    "dumps",
    "load",
    "loads",
    "make_scheduler",
    "record",
    "replay_into",
]

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1


@dataclass(frozen=True)
class TraceRecord:
    """One task of a trace: the workload fields plus the recorded
    placement.  ``machine_set`` is a sorted tuple of 1-based machine
    indices, or ``None`` for an unrestricted task."""

    tid: int
    release: float
    proc: float
    machine_set: tuple[int, ...] | None
    key: int | None
    machine: int
    start: float

    def task(self) -> Task:
        """The workload task (placement stripped)."""
        machines = None if self.machine_set is None else frozenset(self.machine_set)
        return Task(tid=self.tid, release=self.release, proc=self.proc, machines=machines, key=self.key)


@dataclass(frozen=True)
class Trace:
    """A recorded schedule: workload plus placements plus provenance."""

    m: int
    scheduler: str
    records: tuple[TraceRecord, ...]
    meta: Mapping[str, Any] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.records)

    def instance(self) -> Instance:
        """The workload as an :class:`Instance` (placements stripped)."""
        return Instance(m=self.m, tasks=tuple(r.task() for r in self.records))

    def schedule(self) -> Schedule:
        """The recorded schedule, reconstructed and validated."""
        placements = {r.tid: (r.machine, r.start) for r in self.records}
        sched = Schedule(self.instance(), placements)
        sched.validate()
        return sched


def record(
    schedule: Schedule, scheduler: str = "", meta: Mapping[str, Any] | None = None
) -> Trace:
    """Capture ``schedule`` (workload + placements) as a trace.

    Records are emitted in release order — the order any online
    scheduler observes the tasks.
    """
    records = tuple(
        TraceRecord(
            tid=t.tid,
            release=float(t.release),
            proc=float(t.proc),
            machine_set=None if t.machines is None else tuple(sorted(t.machines)),
            key=t.key,
            machine=schedule[t.tid].machine,
            start=float(schedule[t.tid].start),
        )
        for t in schedule.instance
    )
    return Trace(
        m=schedule.m, scheduler=scheduler, records=records, meta=dict(meta or {})
    )


def _record_line(r: TraceRecord) -> str:
    payload = {
        "tid": r.tid,
        "release": r.release,
        "proc": r.proc,
        "machine_set": None if r.machine_set is None else list(r.machine_set),
        "key": r.key,
        "machine": r.machine,
        "start": r.start,
    }
    return json.dumps(payload, separators=(", ", ": "))


def dumps(trace: Trace) -> str:
    """Serialise to the JSONL format (ends with a newline)."""
    header = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "m": trace.m,
        "scheduler": trace.scheduler,
        "n": trace.n,
        "meta": dict(trace.meta),
    }
    lines = [json.dumps(header, sort_keys=True, separators=(", ", ": "))]
    lines.extend(_record_line(r) for r in trace.records)
    return "\n".join(lines) + "\n"


def loads(text: str) -> Trace:
    """Parse the JSONL format; inverse of :func:`dumps`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty trace")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        raise ValueError(f"not a {TRACE_FORMAT} file (header: {lines[0][:80]!r})")
    version = header.get("version")
    if version != TRACE_VERSION:
        raise ValueError(f"unsupported trace version {version!r} (supported: {TRACE_VERSION})")
    records = []
    for ln in lines[1:]:
        d = json.loads(ln)
        records.append(
            TraceRecord(
                tid=int(d["tid"]),
                release=float(d["release"]),
                proc=float(d["proc"]),
                machine_set=None if d["machine_set"] is None else tuple(int(j) for j in d["machine_set"]),
                key=d.get("key"),
                machine=int(d["machine"]),
                start=float(d["start"]),
            )
        )
    n = header.get("n")
    if n is not None and n != len(records):
        raise ValueError(f"trace header declares n={n} but {len(records)} records follow")
    return Trace(
        m=int(header["m"]),
        scheduler=str(header.get("scheduler", "")),
        records=tuple(records),
        meta=dict(header.get("meta", {})),
    )


def dump(trace: Trace, path: str | Path) -> Path:
    """Write the trace to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps(trace))
    return path


def load(path: str | Path) -> Trace:
    """Read a trace from disk."""
    return loads(Path(path).read_text())


def replay_into(scheduler: ImmediateDispatchScheduler, trace: Trace) -> Schedule:
    """Replay the trace's workload through a **fresh** scheduler.

    Tasks are submitted in release order, exactly as the recorded run
    observed them; the trace's placements are ignored — only the
    workload is replayed.  Returns the schedule the scheduler
    produced; compare with ``trace.schedule().same_placements(...)``
    to check reproduction.
    """
    if scheduler.m != trace.m:
        raise ValueError(f"trace has m={trace.m}, scheduler has m={scheduler.m}")
    if not scheduler.fresh:
        raise ValueError("replay_into needs a fresh scheduler (tasks already dispatched)")
    return scheduler.run(trace.instance())


def make_scheduler(name: str, m: int, seed: int | None = 0) -> ImmediateDispatchScheduler:
    """Build a named immediate-dispatch scheduler for replay.

    Delegates to the :mod:`repro.schedulers` registry, so every zoo
    policy (``eft-min``, ``eft-max``, ``eft-rand``, ``least-work``,
    ``round-robin``, ``random``, ``lor``, ``c3``, ``srpt-ps``,
    ``nc-setup``, ``speed-eft``, plus anything registered at runtime)
    resolves here; the recorded display spellings (``EFT-Min`` etc.)
    are accepted too.
    """
    # Function-level import: campaigns is a lower layer than the zoo
    # package.
    from ..schedulers.registry import get_scheduler

    return get_scheduler(name, m, seed=seed)
