"""Vectorized batched simulation core — the engine behind
``Simulator(backend="auto")`` and the array path of
:func:`~repro.core.eft.eft_schedule`.

The reference :class:`~repro.simulation.engine.Simulator` is an
object-per-event loop: a heap event per completion, a ``DispatchRecord``
per decision and dict state everywhere.  Profiling the Figure 9–11
campaigns shows the bookkeeping — not the decision rule — dominating.
This module re-implements the *identical* EFT semantics (Equation (2)
with the deterministic Min/Max tie-breaks) on flat arrays:

* processing sets are lowered to sorted eligibility tuples once per
  distinct set in a call, through a process-wide LRU
  (:func:`lower_processing_set`) so campaign loops re-solving the same
  replica sets never re-lower them;
* the inherently sequential decision recurrence runs as one tight pass
  over pre-lowered scalars (no per-task numpy dispatch, no record
  objects), bit-identical to the reference arithmetic — including the
  ``max()`` argument-order conventions, so even signed zeros match;
* the placements come back as flat columns, which
  :meth:`Schedule.from_arrays <repro.core.schedule.Schedule.from_arrays>`
  takes as they are: the schedule's objectives read the columns, and
  per-task :class:`~repro.core.schedule.Assignment` objects are only
  built when a caller iterates or indexes it.

:func:`array_prefer_max` is the one rule for which tie-breaks the
engine can express; the simulator and ``eft_schedule`` both ask it.

Byte-identity with the reference engine is the regression oracle
(``tests/simulation/test_vec_backend.py`` replays every golden fixture
through the array backend); ``make vec-smoke`` floor-checks the speedup
at 10x, and ``benchmarks/perf`` measures it (``vecengine.decide_s``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .task import Task
from .tiebreak import MaxIndex, MinIndex

__all__ = [
    "array_prefer_max",
    "eft_decide",
    "lower_eligibility",
    "lower_processing_set",
]

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
    every call after the first.  Raises ``ValueError`` for a set
    referencing machines beyond ``m`` (an :class:`Instance` or a
    ``Simulator`` feed never holds one).
    """
    if key is None:
        return tuple(range(1, m + 1))
    if max(key) > m:
        raise ValueError(f"processing set {sorted(key)} exceeds m={m}")
    return tuple(sorted(key))


def lower_eligibility(m: int, tasks: Sequence[Task]) -> list[tuple[int, ...]]:
    """Pre-lowered sorted eligibility tuple per task: each distinct
    processing set is lowered once per call (through the shared cache),
    then the tasks map through that small table."""
    sets = [t.machines for t in tasks]
    lowered = {key: lower_processing_set(m, key) for key in set(sets)}
    return list(map(lowered.__getitem__, sets))


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
