"""Vectorized batched simulation core — the engine behind
``Simulator(backend="array")`` and the array path of
:func:`~repro.core.eft.eft_schedule`.

The reference :class:`~repro.simulation.engine.Simulator` is an
object-per-event loop: three heap events per task, a ``DispatchRecord``
per decision and dict state everywhere.  Profiling the Figure 9–11
campaigns shows the bookkeeping — not the decision rule — dominating.
This module re-implements the *identical* EFT semantics (Equation (2)
with the deterministic Min/Max tie-breaks) on flat arrays:

* processing sets are lowered to sorted eligibility tuples once per
  distinct set, cached process-wide in an LRU
  (:func:`lower_processing_set`) so campaign loops re-solving the same
  replica sets never re-lower them;
* the inherently sequential decision recurrence runs as one tight pass
  over pre-lowered scalars (no per-task numpy dispatch, no record
  objects), bit-identical to the reference arithmetic — including the
  ``max()`` argument-order conventions, so even signed zeros match;
* schedules materialise lazily: :class:`VecSchedule` is a
  :class:`~repro.core.schedule.Schedule` backed by the flat arrays
  that only builds per-task :class:`Assignment` objects when a caller
  actually asks for them.

:func:`array_prefer_max` is the one rule for which tie-breaks the
engine can express; the simulator and ``eft_schedule`` both ask it.

Byte-identity with the reference engine is the regression oracle
(``tests/simulation/test_vec_backend.py`` replays every golden fixture
through the array backend); ``make vec-smoke`` floor-checks the speedup
at 10x, and ``benchmarks/perf`` measures it (``vecengine.decide_s``).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .schedule import Assignment, Schedule
from .task import Instance, Task
from .tiebreak import MaxIndex, MinIndex

__all__ = [
    "VecUnsupported",
    "VecSchedule",
    "array_prefer_max",
    "clear_set_cache",
    "eft_decide",
    "lower_eligibility",
    "lower_processing_set",
    "set_cache_info",
]

class VecUnsupported(Exception):
    """The configuration cannot be expressed on the array fast path
    (the caller must fall back to the reference implementation)."""


def array_prefer_max(tiebreak: object) -> bool | None:
    """Whether the array engine scans from the highest index
    (``MaxIndex``) or the lowest (``MinIndex``); ``None`` when it
    cannot express ``tiebreak`` at all.  Subclasses don't qualify —
    they may override the choice."""
    kind = type(tiebreak)
    if kind is MinIndex:
        return False
    if kind is MaxIndex:
        return True
    return None


@lru_cache(maxsize=65536)
def lower_processing_set(m: int, key: frozenset[int] | None) -> tuple[int, ...]:
    """Lower one processing set to a sorted tuple of machine indices.

    Cached process-wide per distinct ``(m, set)`` pair — key-value
    workloads have at most ``m`` distinct replica sets, so campaign
    loops that re-solve the same replica families hit the cache on
    every call after the first.  Raises :class:`VecUnsupported` for
    sets referencing machines beyond ``m`` (the reference path owns
    the error behaviour for those).
    """
    if key is None:
        return tuple(range(1, m + 1))
    if max(key) > m:
        raise VecUnsupported(f"processing set {sorted(key)} exceeds m={m}")
    return tuple(sorted(key))


def set_cache_info():
    """``functools.lru_cache`` statistics of the set-lowering cache."""
    return lower_processing_set.cache_info()


def clear_set_cache() -> None:
    """Drop every lowered processing set (mainly for tests)."""
    lower_processing_set.cache_clear()


def lower_eligibility(m: int, tasks: Sequence[Task]) -> list[tuple[int, ...]]:
    """Pre-lowered sorted eligibility tuple per task (cache-shared)."""
    lower = lower_processing_set
    return [lower(m, t.machines) for t in tasks]


def eft_decide(
    m: int,
    releases: Sequence[float],
    procs: Sequence[float],
    eligibles: Sequence[tuple[int, ...]],
    prefer_max: bool = False,
) -> tuple[list[int], list[float], list[float]]:
    """Run the EFT recurrence (Equation (2), Min/Max tie-break) over a
    release-ordered workload.

    Returns ``(machines, starts, completions_after)`` where the last
    item is the per-machine completion-time vector *after* every
    dispatch (index 0 unused) — the scheduler state a resumed run
    continues from.  The arithmetic replicates the reference driver
    operation-for-operation (``max(a, b)`` returns its first argument
    on ties, so signed zeros round-trip identically).
    """
    comp = [0.0] * (m + 1)
    machines: list[int] = [0] * len(releases)
    starts: list[float] = [0.0] * len(releases)
    inf = float("inf")
    # One fused scan per decision.  The two-phase reading of Equation
    # (2) — find ``earliest``, then the first/last index at or below
    # ``t_min = max(r, earliest)`` — collapses because the scan can
    # stop at the first machine already free at ``r`` (if one exists,
    # ``t_min = r`` and scan order makes it the answer), and otherwise
    # the answer is the scan-order argmin (``t_min = earliest`` selects
    # exactly the machines attaining the minimum).  Pure comparisons,
    # so the picked index and start are bit-identical to the reference.
    if prefer_max:
        for i, elig in enumerate(eligibles):
            r = releases[i]
            best = inf
            for j in reversed(elig):
                c = comp[j]
                if c <= r:
                    machines[i] = j
                    starts[i] = r
                    comp[j] = r + procs[i]
                    break
                if c < best:
                    best = c
                    bj = j
            else:
                machines[i] = bj
                starts[i] = best
                comp[bj] = best + procs[i]
    else:
        for i, elig in enumerate(eligibles):
            r = releases[i]
            best = inf
            for j in elig:
                c = comp[j]
                if c <= r:
                    machines[i] = j
                    starts[i] = r
                    comp[j] = r + procs[i]
                    break
                if c < best:
                    best = c
                    bj = j
            else:
                machines[i] = bj
                starts[i] = best
                comp[bj] = best + procs[i]
    return machines, starts, comp


class VecSchedule(Schedule):
    """A :class:`Schedule` backed by flat placement arrays.

    Behaves exactly like the dict-based schedule — validation,
    placement comparison and per-task lookups all work — but the
    per-task :class:`Assignment` objects only exist once something
    asks for them; the objective and the bulk accessors come straight
    off the arrays.  ``machines``/``starts`` are in *decision order*
    with ``tids`` carrying the task ids of each row; ``tids=None``
    says the rows already are in instance order.  ``releases`` and
    ``procs`` (instance order) spare re-reading them from the tasks
    when the caller holds them as arrays.
    """

    def __init__(
        self,
        instance: Instance,
        machines: np.ndarray,
        starts: np.ndarray,
        tids: np.ndarray | None = None,
        releases: np.ndarray | None = None,
        procs: np.ndarray | None = None,
    ) -> None:
        self.instance = instance
        n = len(instance.tasks)
        if not (len(machines) == len(starts) == n and (tids is None or len(tids) == n)):
            raise ValueError("placement arrays must cover the instance exactly")
        self._mach = np.asarray(machines, dtype=np.int64)
        self._start = np.asarray(starts, dtype=np.float64)
        self._tids = None if tids is None else np.asarray(tids, dtype=np.int64)
        if releases is not None:
            self._releases = releases
        if procs is not None:
            self._procs = procs

    # -- lazy materialisation ---------------------------------------------
    @cached_property
    def _rows(self) -> np.ndarray | slice:
        """Row index of each instance task (instance order); the full
        slice when the rows already are in instance order."""
        if self._tids is None:
            return slice(None)
        inst_tids = np.fromiter(
            (t.tid for t in self.instance.tasks), dtype=np.int64, count=len(self._tids)
        )
        if np.array_equal(inst_tids, self._tids):
            return slice(None)
        row_of = {int(tid): i for i, tid in enumerate(self._tids)}
        return np.fromiter(
            (row_of[int(tid)] for tid in inst_tids), dtype=np.int64, count=len(inst_tids)
        )

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
        mach = self.machines_array().tolist()
        start = self.starts_array().tolist()
        return {
            t.tid: Assignment(task=t, machine=mach[i], start=start[i])
            for i, t in enumerate(self.instance.tasks)
        }

    # -- array accessors ----------------------------------------------------
    def machines_array(self) -> np.ndarray:
        """Machine of every task, in instance order (read-only)."""
        return self._in_order(self._mach)

    def starts_array(self) -> np.ndarray:
        """Start time of every task, in instance order (read-only)."""
        return self._in_order(self._start)

    def _in_order(self, rows: np.ndarray) -> np.ndarray:
        # Identity rows give a view of the placement arrays themselves.
        out = rows[self._rows]
        out.flags.writeable = False
        return out

    def _flow_array(self) -> np.ndarray:
        # ((start + proc) - release) elementwise: the exact association
        # of Assignment.flow, so the bits match the dict-based path.
        return (self.starts_array() + self._procs) - self._releases

    # -- vectorized overrides ----------------------------------------------
    def __len__(self) -> int:
        return len(self._mach)

    @property
    def max_flow(self) -> float:
        if not len(self._mach):
            return 0.0
        return float(self._flow_array().max())

    @property
    def mean_flow(self) -> float:
        if not len(self._mach):
            return 0.0
        return float(np.mean(self._flow_array()))

    @property
    def makespan(self) -> float:
        if not len(self._mach):
            return 0.0
        return float((self.starts_array() + self._procs).max())

    def flows(self) -> np.ndarray:
        return self._flow_array()

    def machine_loads(self) -> np.ndarray:
        loads = np.bincount(self.machines_array() - 1, weights=self._procs, minlength=self.m)
        return loads[: self.m]
