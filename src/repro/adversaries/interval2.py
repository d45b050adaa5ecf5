"""The Theorem 7 adversary: fixed-size intervals vs any online algorithm.

Three tasks on four machines with size-2 interval sets:

1. :math:`T_1` at time 0 with :math:`\\mathcal{M}_1 = \\{M_2, M_3\\}`
   and length :math:`p`.
2. Observe where (and when) the algorithm runs it.  If it procrastinates
   past :math:`p` the flow already doubles; otherwise, if it chose
   :math:`M_2`, two tasks arrive at :math:`\\sigma_1 + 1` restricted to
   :math:`\\{M_1, M_2\\}` (symmetrically :math:`\\{M_3, M_4\\}` for
   :math:`M_3`).  One of them must wait for :math:`T_1` to finish,
   completing at :math:`\\sigma_1 + 2p` at best — flow
   :math:`\\ge 2p - 1` — while the optimum keeps every flow at
   :math:`p` (run :math:`T_1` on the other machine).

As :math:`p \\to \\infty` the ratio tends to 2.  Immediate-dispatch
algorithms always fall in the "scheduled before :math:`p`" branch,
since they place (and our model starts) tasks greedily.
"""

from __future__ import annotations

from ..theory.bounds import interval_any_lower_bound
from .base import Adversary, AdversaryResult, SchedulerFactory, TidCounter

__all__ = ["IntervalTwoAdversary"]


class IntervalTwoAdversary(Adversary):
    """The 3-task interval adversary (Theorem 7), ``k = 2``, ``m = 4``."""

    m = 4
    k = 2

    def __init__(self, p: float = 100.0) -> None:
        if p <= 1:
            raise ValueError("p should exceed 1 for the bound to show")
        self.p = float(p)

    def theoretical_bound(self) -> float:
        """The asymptotic lower bound 2 (any online algorithm)."""
        return interval_any_lower_bound()

    def run(self, scheduler_factory: SchedulerFactory) -> AdversaryResult:
        p = self.p
        scheduler = scheduler_factory(self.m)
        tid = TidCounter()
        first = scheduler.submit(self._task(tid, 0.0, p, [2, 3]))
        if first.machine == 2:
            follow_set = [1, 2]
        else:
            follow_set = [3, 4]
        release = first.start + 1.0
        scheduler.submit(self._task(tid, release, p, follow_set))
        scheduler.submit(self._task(tid, release, p, follow_set))
        return self._finalize(scheduler, opt_fmax=p, opt_is_exact=True)
