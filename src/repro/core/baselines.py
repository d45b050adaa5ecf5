"""Baseline immediate-dispatch schedulers.

The paper's experiments focus on EFT variants; these baselines provide
the comparison points a practitioner would reach for first, and are
used by the ablation benchmarks:

* :class:`RandomAssign` — uniform choice among eligible machines
  (oblivious to load; a Dynamo-style coordinator without load
  feedback).
* :class:`LeastWorkAssign` — pick the eligible machine with the least
  *total assigned work* so far (a load-balancing greedy that, unlike
  EFT, ignores idle time already elapsed).
* :class:`RoundRobinAssign` — rotate through machines, using the next
  eligible one (stateless per-task cost, no clairvoyance needed).

All of these are non-clairvoyant except :class:`LeastWorkAssign`
(which needs :math:`p_i` only to update its own counters when the
placement is booked, i.e. it never uses :math:`p_i` to decide).
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from .dispatch import ImmediateDispatchScheduler
from .task import Task

__all__ = ["RandomAssign", "LeastWorkAssign", "RoundRobinAssign"]


class RandomAssign(ImmediateDispatchScheduler):
    """Dispatch each task to a uniformly random eligible machine."""

    def __init__(self, m: int, rng: np.random.Generator | int | None = None) -> None:
        super().__init__(m)
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.name = "Random"

    def choose(self, task: Task) -> tuple[int, frozenset[int]]:
        eligible = sorted(task.eligible(self.m))
        machine = eligible[int(self.rng.integers(len(eligible)))]
        return machine, frozenset(eligible)


class LeastWorkAssign(ImmediateDispatchScheduler):
    """Dispatch to the eligible machine with the smallest total
    assigned work (ties by index)."""

    def __init__(self, m: int) -> None:
        super().__init__(m)
        self.assigned_work: dict[int, float] = {j: 0.0 for j in range(1, m + 1)}
        self.name = "LeastWork"

    def choose(self, task: Task) -> tuple[int, frozenset[int]]:
        eligible = sorted(task.eligible(self.m))
        machine = min(eligible, key=lambda j: (self.assigned_work[j], j))
        return machine, frozenset(eligible)

    def charge(self, task: Task, machine: int, start: float) -> float:
        """Count the work where it is booked (fresh, re-placed or
        unparked alike)."""
        self.assigned_work[machine] += task.proc
        return task.proc

    def on_retract(self, tid: int, machine: int, start: float, end: float) -> None:
        """An undone placement no longer counts on its machine."""
        self.assigned_work[machine] -= end - start

    def state_dict(self) -> dict[str, Any]:
        return {"assigned_work": list(self.assigned_work.values())}

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        self.assigned_work = dict(enumerate(state["assigned_work"], 1))


class RoundRobinAssign(ImmediateDispatchScheduler):
    """Dispatch cyclically: after machine ``u``, prefer the next
    eligible machine with a larger index (wrapping around)."""

    def __init__(self, m: int) -> None:
        super().__init__(m)
        self._cursor = 0  # index of the last machine used, 0 = none yet
        self.name = "RoundRobin"

    def choose(self, task: Task) -> tuple[int, frozenset[int]]:
        eligible = sorted(task.eligible(self.m))
        after = [j for j in eligible if j > self._cursor]
        machine = after[0] if after else eligible[0]
        self._cursor = machine
        return machine, frozenset(eligible)

    def book_state(self) -> dict[str, Any]:
        return {**super().book_state(), "cursor": self._cursor}

    def load_book_state(self, state: Mapping[str, Any]) -> None:
        super().load_book_state(state)
        self._cursor = int(state.get("cursor", self._cursor))
