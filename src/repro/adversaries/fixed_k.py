"""The Theorem 4 adversary: size-``k`` sets vs immediate dispatch.

Works on :math:`m = k^{\\lfloor \\log_k m' \\rfloor}` machines.  At
step :math:`\\ell` (time :math:`\\ell - 1`) it releases
:math:`m/k^\\ell` tasks of length :math:`p > \\log_k m` whose
processing sets are **mutually disjoint** size-:math:`k` subsets
partitioning :math:`\\mathcal{M}^{(\\ell-1)}` — the set of machines
where the previous step's tasks landed (observable thanks to immediate
dispatch).  Every step's tasks are forced back onto already-loaded
machines; after :math:`\\log_k m` steps some machine holds
:math:`\\log_k m` stacked tasks, for a max flow of
:math:`\\log_k(m)\\,p - (\\log_k m - 1)` against an optimum of
:math:`p` (each task's private :math:`k`-set always contains
:math:`k-1` machines the algorithm did not pick), hence a ratio
approaching :math:`\\lfloor \\log_k m' \\rfloor`.
"""

from __future__ import annotations

from ..theory.bounds import fixed_k_lower_bound
from .base import Adversary, AdversaryResult, SchedulerFactory, TidCounter

__all__ = ["FixedKAdversary"]


class FixedKAdversary(Adversary):
    """Adaptive disjoint-``k``-set adversary (Theorem 4).

    Parameters
    ----------
    m_prime:
        Nominal machine count; the construction uses the largest power
        of ``k`` not exceeding it.
    k:
        Processing-set size, ``k >= 2``.
    p:
        Task length (``> log_k m``); larger ⇒ tighter ratio.
    """

    def __init__(self, m_prime: int, k: int, p: float | None = None) -> None:
        if k < 2:
            raise ValueError("k must be >= 2")
        if m_prime < k:
            raise ValueError("need m' >= k")
        self.m_prime = m_prime
        self.k = k
        self.levels = fixed_k_lower_bound(m_prime, k)
        self.m = k**self.levels
        self.p = float(p) if p is not None else float(10 * max(self.m, k))
        if self.p <= self.levels:
            raise ValueError(f"p must exceed log_k(m) = {self.levels}")

    def theoretical_bound(self) -> int:
        """:math:`\\lfloor \\log_k m' \\rfloor` — Theorem 4's bound."""
        return fixed_k_lower_bound(self.m_prime, self.k)

    def run(self, scheduler_factory: SchedulerFactory) -> AdversaryResult:
        m, k, p = self.m, self.k, self.p
        scheduler = scheduler_factory(m)
        tid = TidCounter()
        current = sorted(range(1, m + 1))  # M^(l-1): where the last batch landed
        for level in range(1, self.levels + 1):
            release = float(level - 1)
            groups = [current[i : i + k] for i in range(0, len(current), k)]
            assert all(len(g) == k for g in groups)
            landed = []
            for g in groups:
                record = scheduler.submit(self._task(tid, release, p, g))
                landed.append(record.machine)
            current = sorted(landed)
        return self._finalize(scheduler, opt_fmax=p, opt_is_exact=True)
