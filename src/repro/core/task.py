"""Task and instance model for ``P | online-r_i, M_i | Fmax``.

The paper schedules a set :math:`T` of :math:`n` tasks
:math:`T_1, \\dots, T_n` on :math:`m` homogeneous machines
:math:`M_1, \\dots, M_m`.  Each task :math:`T_i` has a release time
:math:`r_i \\ge 0`, a processing time :math:`p_i > 0` and a *processing
set* :math:`\\mathcal{M}_i \\subseteq M` of machines allowed to run it
(Section 3 of the paper).  Machines are indexed **1-based** throughout,
matching the paper's notation; ``machines=None`` means "no restriction"
(all machines eligible).

Tasks are value objects; an :class:`Instance` bundles a task list with a
machine count and enforces the paper's numbering convention
``i < j  =>  r_i <= r_j`` (tasks sorted by release time).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

__all__ = ["Task", "Instance", "check_tasks"]


def _in_order(tasks: Sequence["Task"]) -> bool:
    """Whether ``tasks`` is already sorted by ``(release, tid)`` (ties
    included, so sorting it again would change nothing)."""
    for a, b in zip(tasks, tasks[1:]):
        if b.release < a.release or (b.release == a.release and b.tid < a.tid):
            return False
    return True


@dataclass(frozen=True, slots=True)
class Task:
    """A single task (request) of the scheduling problem.

    Parameters
    ----------
    tid:
        Stable identifier of the task (unique within an instance).
    release:
        Release time :math:`r_i \\ge 0`, finite; the scheduler learns
        nothing about the task before this time (online model).
    proc:
        Processing time :math:`p_i > 0`, finite.  NaN and infinite
        times are rejected with a ``non-finite`` error.
    machines:
        Processing set :math:`\\mathcal{M}_i` as a frozenset of 1-based
        machine indices, or ``None`` for "every machine" (the
        unrestricted problem ``P | online-r_i | Fmax``).
    key:
        Optional key-value-store key this task requests; carried as
        metadata only (tasks sharing a key share a processing set in a
        real store, cf. Section 3).
    """

    tid: int
    release: float
    proc: float
    machines: frozenset[int] | None = None
    key: int | None = None

    def __post_init__(self) -> None:
        # chained compares: NaN fails both, so it cannot slip past as
        # ``nan < 0`` would
        if not 0.0 <= self.release < math.inf:
            rule = "must be >= 0" if math.isfinite(self.release) else "is non-finite"
            raise ValueError(f"task {self.tid}: release {rule}, got {self.release}")
        if not 0.0 < self.proc < math.inf:
            rule = "must be > 0" if math.isfinite(self.proc) else "is non-finite"
            raise ValueError(f"task {self.tid}: processing time {rule}, got {self.proc}")
        if self.machines is not None:
            if not isinstance(self.machines, frozenset):
                object.__setattr__(self, "machines", frozenset(self.machines))
            if not self.machines:
                raise ValueError(f"task {self.tid}: processing set may not be empty")
            for j in self.machines:
                if not isinstance(j, int) or j < 1:
                    raise ValueError(f"task {self.tid}: machine indices must be ints >= 1")

    def eligible(self, m: int) -> frozenset[int]:
        """Concrete processing set on an ``m``-machine cluster."""
        if self.machines is None:
            return frozenset(range(1, m + 1))
        return self.machines

    def is_eligible(self, machine: int, m: int | None = None) -> bool:
        """Whether ``machine`` may process this task."""
        if self.machines is None:
            return m is None or 1 <= machine <= m
        return machine in self.machines

    def restricted_to(self, machines: Iterable[int]) -> "Task":
        """Copy of the task with a replaced processing set."""
        return replace(self, machines=frozenset(machines))

    @property
    def is_unit(self) -> bool:
        """Whether the task has unit processing time (``p_i = 1``)."""
        return self.proc == 1


def check_tasks(m: int, tasks: Sequence[Task]) -> None:
    """Reject the first task, in ``tasks`` order, whose tid repeats an
    earlier one or whose processing set names a machine beyond ``m``.
    A valid list is told apart by its distinct sets and tids alone
    (generated instances share one set per home); only an invalid one
    is walked task by task for its first offender."""
    sets = {t.machines for t in tasks} - {None}
    if all(max(ms) <= m for ms in sets) and len({t.tid for t in tasks}) == len(tasks):
        return
    seen: set[int] = set()
    for t in tasks:
        if t.tid in seen:
            raise ValueError(f"duplicate task id {t.tid}")
        seen.add(t.tid)
        if t.machines is not None and max(t.machines) > m:
            raise ValueError(f"task {t.tid}: processing set {sorted(t.machines)} exceeds m={m}")


@dataclass(frozen=True, slots=True)
class Instance:
    """An instance of ``P | online-r_i, M_i | Fmax``.

    Tasks are stored sorted by ``(release, tid)``, matching the paper's
    convention that tasks are numbered by non-decreasing release time.
    Ties between tasks released at the same instant are served in
    ``tid`` order (the adversaries of Section 6 rely on a deterministic
    within-batch order).  Tasks handed over in that order already (as
    the generators do) are kept as given, without a sort.  Duplicate
    tids and out-of-range sets are rejected, naming the first offender
    in sorted order.
    """

    m: int
    tasks: tuple[Task, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"need at least one machine, got m={self.m}")
        tasks = tuple(self.tasks)
        if not _in_order(tasks):
            tasks = tuple(sorted(tasks, key=lambda t: (t.release, t.tid)))
        object.__setattr__(self, "tasks", tasks)
        check_tasks(self.m, tasks)

    # -- basic container protocol ------------------------------------
    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    def __getitem__(self, i: int) -> Task:
        return self.tasks[i]

    # -- derived quantities -------------------------------------------
    @property
    def n(self) -> int:
        """Number of tasks."""
        return len(self.tasks)

    @property
    def machines(self) -> range:
        """1-based machine indices ``1..m``."""
        return range(1, self.m + 1)

    @property
    def total_work(self) -> float:
        """Sum of processing times (offline makespan lower bound / m)."""
        return sum(t.proc for t in self.tasks)

    @property
    def pmax(self) -> float:
        """Maximum processing time (lower bound (3) on OPT's Fmax)."""
        return max((t.proc for t in self.tasks), default=0.0)

    @property
    def all_unit(self) -> bool:
        """Whether every task is a unit task (``p_i = 1``)."""
        return all(t.is_unit for t in self.tasks)

    @property
    def is_restricted(self) -> bool:
        """Whether any task has a proper processing-set restriction."""
        full = frozenset(self.machines)
        return any(t.machines is not None and t.machines != full for t in self.tasks)

    def processing_sets(self) -> list[frozenset[int]]:
        """Concrete processing set of every task, in task order."""
        return [t.eligible(self.m) for t in self.tasks]

    # -- construction helpers ------------------------------------------
    @staticmethod
    def build(
        m: int,
        releases: Sequence[float],
        procs: Sequence[float] | float = 1.0,
        machine_sets: Sequence[Iterable[int] | None] | None = None,
        keys: Sequence[int | None] | None = None,
    ) -> "Instance":
        """Build an instance from parallel arrays.

        ``procs`` may be a scalar (all tasks share that processing
        time, e.g. ``1.0`` for unit tasks).  ``machine_sets`` entries of
        ``None`` mean unrestricted.
        """
        n = len(releases)
        if not isinstance(procs, (int, float)):
            if len(procs) != n:
                raise ValueError("procs length must match releases")
            plist = [float(p) for p in procs]
        else:
            plist = [float(procs)] * n
        if machine_sets is not None and len(machine_sets) != n:
            raise ValueError("machine_sets length must match releases")
        if keys is not None and len(keys) != n:
            raise ValueError("keys length must match releases")
        tasks = []
        for i in range(n):
            ms = None
            if machine_sets is not None and machine_sets[i] is not None:
                ms = frozenset(machine_sets[i])
            tasks.append(
                Task(
                    tid=i,
                    release=float(releases[i]),
                    proc=plist[i],
                    machines=ms,
                    key=None if keys is None else keys[i],
                )
            )
        return Instance(m=m, tasks=tuple(tasks))

    def with_machine_sets(self, machine_sets: Sequence[Iterable[int] | None]) -> "Instance":
        """Copy of the instance with task processing sets replaced."""
        if len(machine_sets) != self.n:
            raise ValueError("machine_sets length must match task count")
        tasks = tuple(
            replace(t, machines=None if ms is None else frozenset(ms))
            for t, ms in zip(self.tasks, machine_sets)
        )
        return Instance(m=self.m, tasks=tasks)

    # -- serialization --------------------------------------------------
    def to_json(self) -> str:
        """Serialize to a JSON string (round-trips via :meth:`from_json`)."""
        payload = {
            "m": self.m,
            "tasks": [
                {
                    "tid": t.tid,
                    "release": t.release,
                    "proc": t.proc,
                    "machines": None if t.machines is None else sorted(t.machines),
                    "key": t.key,
                }
                for t in self.tasks
            ],
        }
        return json.dumps(payload)

    @staticmethod
    def from_json(payload: str) -> "Instance":
        """Inverse of :meth:`to_json`."""
        data = json.loads(payload)
        tasks = tuple(
            Task(
                tid=d["tid"],
                release=d["release"],
                proc=d["proc"],
                machines=None if d["machines"] is None else frozenset(d["machines"]),
                key=d.get("key"),
            )
            for d in data["tasks"]
        )
        return Instance(m=data["m"], tasks=tasks)
