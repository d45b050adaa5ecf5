"""The Theorem 3 adversary: inclusive sets vs immediate dispatch.

Works on :math:`m = 2^{\\lfloor \\log_2 m' \\rfloor}` machines.  At
step :math:`\\ell` (time :math:`\\ell - 1`) it releases
:math:`m/2^\\ell` tasks of length :math:`p > \\log_2 m` restricted to
the chain set :math:`\\mathcal{M}^{(\\ell)}`, where
:math:`\\mathcal{M}^{(1)} = M` and :math:`\\mathcal{M}^{(\\ell+1)}` is
the half of :math:`\\mathcal{M}^{(\\ell)}` carrying the most allocated
tasks — observable because the algorithm dispatches immediately.  A
final task lands on the single busiest machine of the last pair, giving
a flow of :math:`(\\log_2 m + 1) p - \\log_2 m` against an optimum of
exactly :math:`p` (each step's tasks fit on the half the adversary
abandons), hence a ratio approaching
:math:`\\lfloor \\log_2 m + 1 \\rfloor` as :math:`p \\to \\infty`.
"""

from __future__ import annotations

import math

from .base import Adversary, AdversaryResult, SchedulerFactory, TidCounter

__all__ = ["InclusiveAdversary"]


class InclusiveAdversary(Adversary):
    """Adaptive chain-structured adversary (Theorem 3).

    Parameters
    ----------
    m_prime:
        The nominal machine count :math:`m'`; the construction uses
        the largest power of two :math:`m \\le m'`.
    p:
        Task length; must exceed :math:`\\log_2 m` for the bound to
        bind (larger ⇒ ratio closer to the theorem's value).
    """

    def __init__(self, m_prime: int, p: float | None = None) -> None:
        if m_prime < 2:
            raise ValueError("need at least 2 machines")
        self.m_prime = m_prime
        self.m = 2 ** int(math.floor(math.log2(m_prime)))
        self.levels = int(math.log2(self.m))
        self.p = float(p) if p is not None else float(10 * self.m)
        if self.p <= math.log2(self.m):
            raise ValueError(f"p must exceed log2(m) = {math.log2(self.m):g}")

    def theoretical_bound(self) -> int:
        """:math:`\\lfloor \\log_2(m') + 1 \\rfloor` — the Theorem 3
        lower bound (reached in the limit :math:`p \\to \\infty`)."""
        return math.floor(math.log2(self.m_prime) + 1)

    def run(self, scheduler_factory: SchedulerFactory) -> AdversaryResult:
        m, p = self.m, self.p
        scheduler = scheduler_factory(m)
        tid = TidCounter()
        chain = sorted(range(1, m + 1))  # current M^(l), machine indices
        for level in range(1, self.levels + 1):
            release = float(level - 1)
            for _ in range(m // 2**level):
                scheduler.submit(self._task(tid, release, p, chain))
            # Next chain set: the |chain|/2 machines of `chain` with the
            # most allocated tasks so far (the proof's counting argument
            # guarantees they carry >= level * |chain|/2 tasks in total).
            half = len(chain) // 2
            chain = sorted(
                sorted(chain, key=lambda j: (-scheduler.task_counts[j], j))[:half]
            )
        # `chain` is now the final pair reduced to... after `levels`
        # halvings it holds a single machine pair's busiest half: with
        # m = 2^levels the loop leaves |chain| = 1.
        final_machine = chain[0]
        scheduler.submit(self._task(tid, float(self.levels), p, [final_machine]))
        return self._finalize(scheduler, opt_fmax=p, opt_is_exact=True)
