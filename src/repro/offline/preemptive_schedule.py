"""Preemptive timetables: the offline optimum's and the online engine's.

Both sides of the preemptive model (with migration) produce the same
timetable type, a list of :class:`Piece`, checked by the one validator
:func:`validate_pieces`.

**Offline.** :func:`repro.offline.preemptive.preemptive_feasible`
certifies that a deadline vector is achievable, but a certificate is
not a timetable.  :func:`preemptive_schedule_pieces` turns the
per-interval flow amounts :math:`x_{ij}` (work of task :math:`i`
served by machine :math:`j` inside interval :math:`I_\\ell`) into
actual execution pieces via a Birkhoff–von Neumann style
decomposition:

1. pad the interval's task×machine amount matrix to a square matrix
   whose every row and column sums exactly to the interval length
   :math:`L` (dummy "parked task" columns absorb a task's idle time,
   dummy "idle filler" rows absorb a machine's idle time);
2. a matrix with constant line sums and non-negative entries has a
   *perfect* matching on its positive entries (Hall's theorem / BvN);
   extract one with Hopcroft–Karp, run it for
   :math:`\\delta = \\min` matched entry, subtract, repeat — each
   round zeroes at least one entry, so at most
   :math:`(n_\\ell + m)^2` rounds;
3. real (task, machine) pairs of each round become execution pieces;
   dummy pairs are idleness.

**Online.** :class:`PreemptiveEngine` runs *priority-preemptive*
policies, the model of Table 1's preemptive rows (preemptive FIFO keeps
``3 − 2/m``; Ambühl & Mastrolilli reach the optimal ``2 − 1/m``) and of
Fox & Moseley's SRPT analysis: at every event point (a release or the
earliest completion) the released unfinished tasks are matched to
machines in priority order, each to a free compatible machine, and a
preempted task may resume elsewhere.  Lower keys run first:

* :func:`fifo_priority` — earliest release first.  Never preempts in
  practice (running tasks were released earlier), so on unrestricted
  instances its completions are non-preemptive FIFO's;
* :func:`srpt_priority` — shortest *remaining* processing time first,
  the classic mean-flow heuristic; aggressive preemption.

Its max flow is bounded below by :func:`optimal_preemptive_fmax`, the
oracle of the same model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.task import Instance, Task
from .matching import hopcroft_karp
from .preemptive import _solve_network

__all__ = [
    "Piece",
    "PreemptiveEngine",
    "PreemptiveResult",
    "fifo_priority",
    "preemptive_schedule_pieces",
    "srpt_priority",
    "validate_pieces",
]

_EPS = 1e-9


class Piece(tuple):
    """An execution piece ``(tid, machine, start, end)``."""

    __slots__ = ()

    def __new__(cls, tid: int, machine: int, start: float, end: float):
        return super().__new__(cls, (tid, machine, start, end))

    @property
    def tid(self) -> int:
        return self[0]

    @property
    def machine(self) -> int:
        return self[1]

    @property
    def start(self) -> float:
        return self[2]

    @property
    def end(self) -> float:
        return self[3]


def _decompose_interval(
    length: float,
    amounts: dict[tuple[int, int], float],
    machines: list[int],
    start_time: float,
) -> list[tuple[int, int, float, float]]:
    """BvN decomposition of one interval; returns raw piece tuples."""
    task_ids = sorted({i for i, _ in amounts})
    n_rows = len(task_ids)
    m = len(machines)
    size = n_rows + m
    # Square matrix: rows = tasks then idle-fillers (one per machine);
    # cols = machines then parked-task cols (one per task).
    mat = [[0.0] * size for _ in range(size)]
    row_of_task = {tid: r for r, tid in enumerate(task_ids)}
    col_of_machine = {j: c for c, j in enumerate(machines)}
    for (i, j), x in amounts.items():
        mat[row_of_task[i]][col_of_machine[j]] += x
    # Parked-task columns: task i's own idle time in this interval.
    for r, tid in enumerate(task_ids):
        row_sum = sum(mat[r])
        mat[r][m + r] = max(0.0, length - row_sum)
    # Idle-filler rows: machine idle time, then top the filler rows up
    # through the parked columns (northwest-corner fill).
    col_deficit = [0.0] * size
    for c in range(size):
        col_sum = sum(mat[r][c] for r in range(n_rows))
        target = length
        col_deficit[c] = max(0.0, target - col_sum)
    filler_remaining = [length] * m  # row sums still to place per filler row
    for k in range(m):
        # first absorb this machine's idleness
        c = k
        take = min(filler_remaining[k], col_deficit[c])
        mat[n_rows + k][c] += take
        filler_remaining[k] -= take
        col_deficit[c] -= take
    # distribute the rest of filler rows across remaining column deficits
    c = 0
    for k in range(m):
        while filler_remaining[k] > _EPS:
            while c < size and col_deficit[c] <= _EPS:
                c += 1
            if c >= size:  # pragma: no cover - conservation guarantees room
                raise RuntimeError("padding failed: no column deficit left")
            take = min(filler_remaining[k], col_deficit[c])
            mat[n_rows + k][c] += take
            filler_remaining[k] -= take
            col_deficit[c] -= take

    pieces: list[tuple[int, int, float, float]] = []
    clock = start_time
    remaining = length
    guard = 0
    while remaining > _EPS:
        guard += 1
        if guard > size * size + 10:  # pragma: no cover - BvN terminates sooner
            raise RuntimeError("decomposition failed to terminate")
        adjacency = {
            r: [c for c in range(size) if mat[r][c] > _EPS] for r in range(size)
        }
        matching = hopcroft_karp(adjacency)
        if len(matching) < size:  # pragma: no cover - perfect by BvN
            raise RuntimeError("no perfect matching in padded matrix")
        delta = min(mat[r][c] for r, c in matching.items())
        delta = min(delta, remaining)
        for r, c in matching.items():
            mat[r][c] -= delta
            if r < n_rows and c < m:
                pieces.append((task_ids[r], machines[c], clock, clock + delta))
        clock += delta
        remaining -= delta
    return pieces


def preemptive_schedule_pieces(
    instance: Instance, flow_bound: float
) -> list[Piece] | None:
    """An explicit preemptive timetable meeting ``d_i = r_i +
    flow_bound``, or ``None`` if infeasible.

    Pieces are merged when consecutive on the same (task, machine).
    """
    if instance.n == 0:
        return []
    feasible, intervals, amounts = _solve_network(instance, flow_bound)
    if not feasible:
        return None
    machines = list(range(1, instance.m + 1))
    raw: list[tuple[int, int, float, float]] = []
    for l, (a, b) in enumerate(intervals):
        per_interval = {
            (i, j): x for (i, l2, j), x in amounts.items() if l2 == l
        }
        if not per_interval:
            continue
        raw.extend(_decompose_interval(b - a, per_interval, machines, a))
    # translate task indices to tids and merge adjacent same-pair pieces
    tids = [t.tid for t in instance.tasks]
    raw = [(tids[i], j, s, e) for (i, j, s, e) in raw]
    raw.sort(key=lambda p: (p[0], p[1], p[2]))
    merged: list[Piece] = []
    for tid, j, s, e in raw:
        if merged and merged[-1].tid == tid and merged[-1].machine == j and abs(
            merged[-1].end - s
        ) <= _EPS:
            last = merged.pop()
            merged.append(Piece(tid, j, last.start, e))
        else:
            merged.append(Piece(tid, j, s, e))
    return merged


def validate_pieces(
    instance: Instance, pieces: list[Piece], flow_bound: float, tol: float = 1e-6
) -> None:
    """Raise ``ValueError`` unless the timetable is a feasible
    preemptive schedule meeting every deadline."""
    by_tid = {t.tid: t for t in instance}
    work: dict[int, float] = {t.tid: 0.0 for t in instance}
    for p in pieces:
        task = by_tid.get(p.tid)
        if task is None:
            raise ValueError(f"piece references unknown task {p.tid}")
        if p.end <= p.start - tol:
            raise ValueError(f"piece of task {p.tid} has non-positive length")
        if p.start < task.release - tol:
            raise ValueError(f"task {p.tid} runs before its release")
        if p.end > task.release + flow_bound + tol:
            raise ValueError(f"task {p.tid} misses its deadline")
        if not task.is_eligible(p.machine, instance.m):
            raise ValueError(f"task {p.tid} runs on ineligible machine {p.machine}")
        work[p.tid] += p.end - p.start
    for tid, w in work.items():
        if abs(w - by_tid[tid].proc) > tol * max(1.0, by_tid[tid].proc):
            raise ValueError(f"task {tid} received {w} work, needs {by_tid[tid].proc}")
    # no overlap per machine; no parallelism per task
    for key_fn, label in ((lambda p: p.machine, "machine"), (lambda p: p.tid, "task")):
        groups: dict[int, list[Piece]] = {}
        for p in pieces:
            groups.setdefault(key_fn(p), []).append(p)
        for key, plist in groups.items():
            plist.sort(key=lambda p: p.start)
            for p1, p2 in zip(plist, plist[1:]):
                if p2.start < p1.end - tol:
                    raise ValueError(f"{label} {key} overlaps at {p2.start}")


#: Priority key: (task, remaining_work, now) -> sortable key (lower runs first)
PriorityFn = Callable[[Task, float, float], tuple]


def fifo_priority(task: Task, remaining: float, now: float) -> tuple:
    """Earliest release first (ties by tid)."""
    return (task.release, task.tid)


def srpt_priority(task: Task, remaining: float, now: float) -> tuple:
    """Shortest remaining processing time first (ties by release, tid)."""
    return (remaining, task.release, task.tid)


@dataclass
class PreemptiveResult:
    """Outcome of a preemptive run: flows, the timetable, preemptions."""

    flows: dict[int, float]
    pieces: list[Piece]
    preemptions: int = 0

    @property
    def max_flow(self) -> float:
        return max(self.flows.values(), default=0.0)

    @property
    def mean_flow(self) -> float:
        if not self.flows:
            return 0.0
        return float(np.mean(list(self.flows.values())))


class PreemptiveEngine:
    """Priority-preemptive execution of an instance.

    The scheduler re-plans at every event point (release or earliest
    completion): released unfinished tasks are matched to machines by
    priority order, each task to a free compatible machine (greedy by
    priority; a task with no free compatible machine waits — with
    processing sets a perfect priority-respecting matching may not
    exist, the greedy rule is the natural online discipline).
    """

    def __init__(self, priority: PriorityFn = fifo_priority) -> None:
        self.priority = priority

    def run(self, instance: Instance) -> PreemptiveResult:
        m = instance.m
        tasks = list(instance.tasks)
        by_tid = {t.tid: t for t in tasks}
        release_idx = 0
        n = len(tasks)
        active: dict[int, float] = {}  # tid -> remaining (released, unfinished)
        completions: dict[int, float] = {}
        pieces: list[Piece] = []
        preemptions = 0
        prev_running: dict[int, int | None] = {j: None for j in range(1, m + 1)}
        now = 0.0

        while release_idx < n or active:
            # Admit releases due now.
            if release_idx < n and not active:
                now = max(now, tasks[release_idx].release)
            while release_idx < n and tasks[release_idx].release <= now + 1e-12:
                t = tasks[release_idx]
                active[t.tid] = t.proc
                release_idx += 1
            if not active:
                continue
            # Plan: priority-ordered greedy assignment to machines.
            order = sorted(
                active, key=lambda tid: self.priority(by_tid[tid], active[tid], now)
            )
            free = set(range(1, m + 1))
            running: dict[int, int] = {}  # machine -> tid
            for tid in order:
                eligible = by_tid[tid].eligible(m) & free
                if eligible:
                    # keep affinity with the previous slice when possible
                    prev = next(
                        (j for j in sorted(eligible) if prev_running[j] == tid), None
                    )
                    j = prev if prev is not None else min(eligible)
                    running[j] = tid
                    free.discard(j)
            # Count preemptions: a task that was running and is now
            # displaced while still unfinished.
            now_running = set(running.values())
            for j in range(1, m + 1):
                tid = prev_running[j]
                if tid is not None and tid in active and tid not in now_running:
                    preemptions += 1
            # Advance to the next event.
            horizon = math.inf
            if release_idx < n:
                horizon = tasks[release_idx].release - now
            if running:
                horizon = min(horizon, min(active[tid] for tid in running.values()))
            if horizon is math.inf:  # pragma: no cover - cannot happen: active nonempty => running nonempty
                raise RuntimeError("stalled preemptive engine")
            delta = max(horizon, 0.0)
            for j, tid in running.items():
                if delta > 0:
                    pieces.append(Piece(tid, j, now, now + delta))
                active[tid] -= delta
            now += delta
            for tid in list(active):
                if active[tid] <= 1e-9:
                    completions[tid] = now
                    del active[tid]
            prev_running = {j: running.get(j) for j in range(1, m + 1)}
            for j, tid in list(prev_running.items()):
                if tid is not None and tid not in active:
                    prev_running[j] = None

        flows = {tid: completions[tid] - by_tid[tid].release for tid in completions}
        return PreemptiveResult(flows=flows, pieces=pieces, preemptions=preemptions)
