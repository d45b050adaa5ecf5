"""The Theorem 5 adversary: nested sets vs any online algorithm.

Unit tasks on :math:`m = 2^{\\lfloor \\log_2 m' \\rfloor}` machines,
with a window :math:`F \\ge \\log_2(m) + 2` between phases.  Phase
:math:`k` works on the interval :math:`I(u_k, s_k)` with
:math:`s_k = m/2^k`:

* :math:`G_{1,k}` — :math:`s_k` unit tasks released at
  :math:`t_k = kF` restricted to :math:`I(u_k, s_k)`;
* :math:`G_{2,k}` — for each machine :math:`M_j \\in I(u_k, s_k)`, one
  unit task *only* runnable on :math:`M_j` at each of the times
  :math:`t_k, t_k+1, \\dots, t_k+F-1`.

The next interval is the half of :math:`I(u_k, s_k)` holding the most
uncompleted single-machine tasks at :math:`t_{k+1}` (a pigeonhole
argument shows it keeps :math:`(k+1) s_{k+1}` of them).  After
:math:`\\log_2 m` halvings one machine carries :math:`\\log_2(m) + 2`
pending units, while the optimum finishes everything with max flow 3
(schedule :math:`G_{1,k}` on the abandoned half first, then the
singleton tasks) — hence the
:math:`\\tfrac13\\lfloor\\log_2(m) + 2\\rfloor` bound.

The processing-set family is nested: the intervals form a chain and
every singleton is inside some interval.
"""

from __future__ import annotations

import math

from ..theory.bounds import nested_lower_bound
from .base import Adversary, AdversaryResult, SchedulerFactory, TidCounter

__all__ = ["NestedAdversary"]


class NestedAdversary(Adversary):
    """Adaptive nested-interval adversary (Theorem 5).

    Parameters
    ----------
    m_prime:
        Nominal machine count (rounded down to a power of two).
    F:
        Phase length; defaults to the smallest valid value
        :math:`\\lceil \\log_2 m \\rceil + 2`.
    """

    def __init__(self, m_prime: int, F: int | None = None) -> None:
        if m_prime < 2:
            raise ValueError("need at least 2 machines")
        self.m_prime = m_prime
        self.m = 2 ** int(math.floor(math.log2(m_prime)))
        self.levels = int(math.log2(self.m))  # number of halvings
        min_F = self.levels + 2
        self.F = int(F) if F is not None else min_F
        if self.F < min_F:
            raise ValueError(f"F must be >= log2(m) + 2 = {min_F}")

    def theoretical_bound(self) -> float:
        """:math:`\\tfrac13 \\lfloor \\log_2(m') + 2 \\rfloor`."""
        return nested_lower_bound(self.m_prime)

    def run(self, scheduler_factory: SchedulerFactory) -> AdversaryResult:
        m, F = self.m, self.F
        scheduler = scheduler_factory(m)
        tid = TidCounter()
        singleton_tasks: list = []  # (task, record) pairs of all G2 tasks
        u, s = 1, m
        for k in range(self.levels + 1):
            t_k = float(k * F)
            interval = list(range(u, u + s))
            # G1: s tasks restricted to the whole interval.
            for _ in range(s):
                scheduler.submit(self._task(tid, t_k, 1.0, interval))
            # G2: per-machine singleton tasks, F waves.
            for f in range(F):
                for j in interval:
                    task = self._task(tid, t_k + f, 1.0, [j])
                    record = scheduler.submit(task)
                    singleton_tasks.append((task, record))
            if s == 1:
                break
            # Pick the half with the most uncompleted singleton tasks at
            # the start of the next phase.
            t_next = t_k + F
            half = s // 2
            left = range(u, u + half)
            right = range(u + half, u + s)
            left_count = self._uncompleted_on(singleton_tasks, left, t_next)
            right_count = self._uncompleted_on(singleton_tasks, right, t_next)
            if left_count >= right_count:
                u, s = u, half
            else:
                u, s = u + half, half
        return self._finalize(scheduler, opt_fmax=3.0, opt_is_exact=False)

    @staticmethod
    def _uncompleted_on(singleton_tasks, machines, t: float) -> int:
        wanted = set(machines)
        count = 0
        for task, record in singleton_tasks:
            machine = next(iter(task.machines))
            if machine in wanted and record.start + task.proc > t:
                count += 1
        return count
