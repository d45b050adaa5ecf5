"""Schedule container, validity checking and objective evaluation.

A schedule :math:`\\Pi` maps each task :math:`T_i` to a pair
:math:`(\\mu_i, \\sigma_i)` — the machine it runs on and its start time
(Section 3).  The completion time is :math:`C_i = \\sigma_i + p_i`, the
flow time :math:`F_i = C_i - r_i`, and the objective is
:math:`F_{max} = \\max_i F_i`.

:class:`Schedule` is immutable once built; :meth:`Schedule.validate`
checks the model's feasibility constraints (no machine runs two tasks
simultaneously, no preemption — implicit in the representation —,
start times respect release times, machines respect processing sets).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from .task import Instance, Task

__all__ = ["Assignment", "Schedule", "ScheduleError"]


class ScheduleError(ValueError):
    """Raised when a schedule violates a feasibility constraint."""


@dataclass(frozen=True, slots=True)
class Assignment:
    """Placement of one task: machine :math:`\\mu_i`, start
    :math:`\\sigma_i`, and (redundantly, for convenience) the task."""

    task: Task
    machine: int
    start: float

    @property
    def completion(self) -> float:
        """Completion time :math:`C_i = \\sigma_i + p_i`."""
        return self.start + self.task.proc

    @property
    def flow(self) -> float:
        """Flow time :math:`F_i = C_i - r_i` (a.k.a. response time)."""
        return self.completion - self.task.release

    @property
    def stretch(self) -> float:
        """Stretch :math:`F_i / p_i` (flow normalised by size)."""
        return self.flow / self.task.proc

    @property
    def wait(self) -> float:
        """Waiting time :math:`\\sigma_i - r_i`."""
        return self.start - self.task.release


class Schedule:
    """An assignment of every task of an :class:`Instance`, held as
    columns in instance order.

    The constructor accepts a mapping ``tid -> (machine, start)``;
    :meth:`from_arrays` takes the machine and start columns directly.
    The objectives and the bulk accessors come straight off the
    columns; the per-task :class:`Assignment` objects are only built
    when something iterates or indexes the schedule.
    """

    def __init__(self, instance: Instance, placements: Mapping[int, tuple[int, float]]) -> None:
        missing = [t.tid for t in instance if t.tid not in placements]
        if missing:
            raise ScheduleError(f"tasks without placement: {missing[:10]}")
        extra = set(placements) - {t.tid for t in instance}
        if extra:
            raise ScheduleError(f"placements for unknown tasks: {sorted(extra)[:10]}")
        rows = [placements[t.tid] for t in instance]
        self._set_columns(instance, [int(mu) for mu, _ in rows], [float(s) for _, s in rows])

    @classmethod
    def from_arrays(
        cls,
        instance: Instance,
        machines: Sequence[int],
        starts: Sequence[float],
        releases: np.ndarray | None = None,
        procs: np.ndarray | None = None,
    ) -> "Schedule":
        """The schedule placing task ``i`` of ``instance`` on
        ``machines[i]`` from ``starts[i]``.  ``releases`` and ``procs``,
        when the caller holds them as arrays already, spare re-reading
        them from the tasks."""
        if not len(machines) == len(starts) == len(instance.tasks):
            raise ValueError("placement arrays must cover the instance exactly")
        self = cls.__new__(cls)
        self._set_columns(instance, machines, starts)
        if releases is not None:
            self._releases = releases
        if procs is not None:
            self._procs = procs
        return self

    def _set_columns(
        self, instance: Instance, machines: Sequence[int], starts: Sequence[float]
    ) -> None:
        self.instance = instance
        self._mach = np.asarray(machines, dtype=np.int64)
        self._start = np.asarray(starts, dtype=np.float64)

    # -- columns ----------------------------------------------------------
    @cached_property
    def _releases(self) -> np.ndarray:
        return np.fromiter(
            (t.release for t in self.instance.tasks), dtype=np.float64, count=len(self._mach)
        )

    @cached_property
    def _procs(self) -> np.ndarray:
        return np.fromiter(
            (t.proc for t in self.instance.tasks), dtype=np.float64, count=len(self._mach)
        )

    @cached_property
    def _assignments(self) -> dict[int, Assignment]:
        mach = self._mach.tolist()
        start = self._start.tolist()
        return {
            t.tid: Assignment(task=t, machine=mach[i], start=start[i])
            for i, t in enumerate(self.instance.tasks)
        }

    def machines_array(self) -> np.ndarray:
        """Machine of every task, in instance order (read-only)."""
        return _read_only(self._mach)

    def starts_array(self) -> np.ndarray:
        """Start time of every task, in instance order (read-only)."""
        return _read_only(self._start)

    # -- access ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._mach)

    def __iter__(self) -> Iterator[Assignment]:
        return iter(self._assignments.values())

    def __getitem__(self, tid: int) -> Assignment:
        return self._assignments[tid]

    @property
    def m(self) -> int:
        return self.instance.m

    def machine_of(self, tid: int) -> int:
        """:math:`\\mu_i` — machine of task ``tid``."""
        return self[tid].machine

    def start_of(self, tid: int) -> float:
        """:math:`\\sigma_i` — start time of task ``tid``."""
        return self[tid].start

    def completion_of(self, tid: int) -> float:
        """:math:`C_i` — completion time of task ``tid``."""
        return self[tid].completion

    def flow_of(self, tid: int) -> float:
        """:math:`F_i` — flow time of task ``tid``."""
        return self[tid].flow

    def on_machine(self, machine: int) -> list[Assignment]:
        """Assignments placed on ``machine``, sorted by start time."""
        out = [a for a in self if a.machine == machine]
        out.sort(key=lambda a: (a.start, a.task.tid))
        return out

    # -- objectives --------------------------------------------------------
    def flows(self) -> np.ndarray:
        """Flow times as an array, in instance order."""
        # ((start + proc) - release) elementwise: Assignment.flow's
        # association, so the bits match the per-task arithmetic.
        return (self._start + self._procs) - self._releases

    @property
    def max_flow(self) -> float:
        """The objective :math:`F_{max} = \\max_i (C_i - r_i)`."""
        return float(self.flows().max()) if len(self) else 0.0

    @property
    def mean_flow(self) -> float:
        """Average flow time (secondary metric)."""
        return float(np.mean(self.flows())) if len(self) else 0.0

    @property
    def max_stretch(self) -> float:
        """Maximum stretch :math:`\\max_i F_i / p_i`."""
        return float((self.flows() / self._procs).max()) if len(self) else 0.0

    @property
    def makespan(self) -> float:
        """:math:`C_{max} = \\max_i C_i`."""
        return float((self._start + self._procs).max()) if len(self) else 0.0

    def machine_loads(self) -> np.ndarray:
        """Total work placed on each machine (index 0 = machine 1)."""
        loads = np.bincount(self._mach - 1, weights=self._procs, minlength=self.m)
        # bincount answers an empty schedule with integer zeros
        return loads[: self.m].astype(np.float64, copy=False)

    def machine_busy_fraction(self, horizon: float | None = None) -> np.ndarray:
        """Fraction of ``[0, horizon]`` each machine spends busy."""
        if horizon is None:
            horizon = self.makespan
        if horizon <= 0:
            return np.zeros(self.m)
        return self.machine_loads() / horizon

    # -- validation ---------------------------------------------------------
    def validate(self, tol: float = 1e-9) -> None:
        """Check feasibility; raise :class:`ScheduleError` on violation.

        Constraints (Section 3): each machine processes at most one
        task at a time (no overlap), tasks start at or after their
        release time, and tasks only run on machines of their
        processing set.  Non-preemption is structural (one interval per
        task).
        """
        for a in self:
            if not (1 <= a.machine <= self.m):
                raise ScheduleError(f"task {a.task.tid}: machine {a.machine} outside 1..{self.m}")
            if a.start < a.task.release - tol:
                raise ScheduleError(
                    f"task {a.task.tid}: starts at {a.start} before release {a.task.release}"
                )
            if not a.task.is_eligible(a.machine, self.m):
                raise ScheduleError(
                    f"task {a.task.tid}: machine {a.machine} not in processing set "
                    f"{sorted(a.task.eligible(self.m))}"
                )
        for j in range(1, self.m + 1):
            run = self.on_machine(j)
            for prev, nxt in zip(run, run[1:]):
                if nxt.start < prev.completion - tol:
                    raise ScheduleError(
                        f"machine {j}: task {nxt.task.tid} starts at {nxt.start} "
                        f"before task {prev.task.tid} completes at {prev.completion}"
                    )

    def is_valid(self, tol: float = 1e-9) -> bool:
        """Boolean form of :meth:`validate`."""
        try:
            self.validate(tol=tol)
        except ScheduleError:
            return False
        return True

    # -- comparison ------------------------------------------------------
    def same_placements(self, other: "Schedule", tol: float = 1e-9) -> bool:
        """Whether both schedules place every task identically
        (:math:`\\Pi(i) = \\Pi'(i)` for all tasks — Proposition 1's
        equality)."""
        if set(self._assignments) != set(other._assignments):
            return False
        for tid, a in self._assignments.items():
            b = other._assignments[tid]
            if a.machine != b.machine or abs(a.start - b.start) > tol:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Schedule(n={len(self)}, m={self.m}, Fmax={self.max_flow:.4g}, "
            f"Cmax={self.makespan:.4g})"
        )


def _read_only(rows: np.ndarray) -> np.ndarray:
    """A read-only view of ``rows``."""
    out = rows[:]
    out.flags.writeable = False
    return out
