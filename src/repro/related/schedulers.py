"""Online schedulers for related machines (Table 1's ``Q`` rows).

Both schedulers are immediate dispatch and clairvoyant, like EFT, and
are built *on* the core driver: they subclass
:class:`~repro.core.dispatch.ImmediateDispatchScheduler` and express
speed through the ``service``/``charge`` hooks of
:mod:`repro.schedulers.contract` — the ``proc`` field of tasks is *work*,
the driver divides by the chosen machine's speed and materialises
schedules over a derived instance whose processing times are the
realised execution times, so all standard metrics, validation, the
simulation engine, and the serve tier apply with no parallel type
hierarchy.

* :class:`GreedyRelated` — the natural generalisation of EFT: place
  each task on the machine finishing it earliest
  (:math:`\\min_j \\max(r_i, C_j) + w_i/s_j`).  Bansal & Cloostermans
  show Greedy is at least :math:`\\Omega(\\log m)`-competitive for
  max-flow on related machines: it happily burns fast machines on work
  slow machines could have absorbed.
* :class:`SlowFitRelated` — the classic Slow-Fit discipline with
  doubling: keep an estimate :math:`\\Lambda` of the achievable flow
  bound and place each task on the *slowest* machine that still
  completes it by :math:`r_i + 2\\Lambda`, doubling :math:`\\Lambda`
  when nobody fits.  Protects fast machines for tasks that need them
  (but is at least :math:`\\Omega(m)`-competitive in the worst case —
  the two failure modes are complementary, which is why Double-Fit
  interleaves them).

With identical speeds, Greedy coincides with EFT-Min, faulted runs
included — property-tested in ``tests/related/test_schedulers.py``.
"""

from __future__ import annotations

from ..core.dispatch import ImmediateDispatchScheduler
from ..core.task import Task
from .model import SpeedCluster

__all__ = ["GreedyRelated", "SlowFitRelated"]


class _RelatedBase(ImmediateDispatchScheduler):
    """Shared driver: the core immediate-dispatch loop plus a speed
    cluster feeding :meth:`service`."""

    def __init__(self, cluster: SpeedCluster) -> None:
        super().__init__(cluster.m)
        self.cluster = cluster

    def service(self, task: Task, machine: int) -> float:
        """Work divided by the machine's speed."""
        return self.cluster.exec_time(task.proc, machine)

    def charge(self, task: Task, machine: int, start: float) -> float:
        """Speed carries no state: the charge is the service."""
        return self.service(task, machine)


class GreedyRelated(_RelatedBase):
    """Greedy / EFT on related machines — the zoo's Speed-EFT: earliest
    finish time wins (ties: faster machine, then earlier start, then
    lower index).

    The ``speed-eft`` registry entry runs it on a two-tier fleet, a
    quarter of the machines (at least one) at 4x: the smallest
    configuration where speed-awareness visibly beats speed-blind EFT.
    """

    name = "Speed-EFT"

    def choose(self, task: Task) -> tuple[int, frozenset[int]]:
        speed, work, comp = self.cluster.speed, self.cluster.exec_time, self.completions
        release, proc = task.release, task.proc
        # (finish, -speed, start, j): the earlier start breaks a finish
        # tie before the index does — two starts can round to one
        # finish, and EFT-Min's U'_i holds only the earliest starts.
        ranked = []
        for j in task.eligible(self.m):
            start = max(release, comp[j])
            ranked.append((start + work(proc, j), -speed(j), start, j))
        finish, _, _, best = min(ranked)
        # The tie set is the related-machine analogue of Eq. (2)'s
        # U'_i: every eligible machine achieving the minimal finish.
        return best, frozenset(j for f, _, _, j in ranked if f == finish)


class SlowFitRelated(_RelatedBase):
    """Slow-Fit with doubling: slowest machine completing the task by
    ``r_i + 2 * Lambda``; double ``Lambda`` until someone fits."""

    name = "SlowFit(Q)"

    def __init__(self, cluster: SpeedCluster, initial_bound: float | None = None) -> None:
        super().__init__(cluster)
        self._bound = initial_bound  # Lambda; lazily initialised
        self.doublings = 0

    def choose(self, task: Task) -> tuple[int, frozenset[int]]:
        eligible = sorted(task.eligible(self.m))
        fastest_time = min(self.service(task, j) for j in eligible)
        if self._bound is None:
            self._bound = fastest_time
        while True:
            deadline = task.release + 2 * self._bound
            # slowest machine (ties: lower index) that meets the deadline
            candidates = sorted(
                (self.cluster.speed(j), j)
                for j in eligible
                if max(task.release, self.completions[j]) + self.service(task, j)
                <= deadline + 1e-12
            )
            if candidates:
                return candidates[0][1], frozenset(j for _, j in candidates)
            self._bound *= 2
            self.doublings += 1
