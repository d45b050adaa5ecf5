"""Candidate replication strategies beyond the paper (future work).

The paper's conclusion leaves open "devising a structured processing
set, or replication strategy, that would provide efficient performance
on average and in the worst case".  This module implements candidate
answers, evaluated by :mod:`repro.explore.evaluate`:

* :class:`DualPartition` — two disjoint partitions of the ring offset
  by :math:`\\lfloor k/2 \\rfloor`; each home uses the group (of the
  two) in which it sits most centrally.  Pairwise, groups are equal,
  disjoint, or half-overlapping — a middle ground between the paper's
  two strategies: more routing freedom than disjoint, fewer chained
  dependencies than overlapping.
* :class:`RandomKSets` — each home maps to ``k`` pseudo-random machines
  (hash-seeded, deterministic).  Destroys interval structure entirely;
  an expander-like spread that maximises routing freedom at the cost
  of any worst-case structure guarantee.
* :class:`MirroredIntervals` — overlapping intervals that alternate
  direction: odd homes replicate clockwise, even homes
  counter-clockwise.  Keeps every set an interval (ring) but breaks
  the uniform chaining that the Theorem 8 adversary exploits.
"""

from __future__ import annotations

import hashlib

from ..psets.replication import DisjointIntervals, OverlappingIntervals, ReplicationStrategy
from ..psets.sets import ring_interval

__all__ = ["DualPartition", "RandomKSets", "MirroredIntervals", "EXPLORATION_STRATEGIES"]


class DualPartition(ReplicationStrategy):
    """Two offset disjoint partitions; homes pick their most central
    group.

    Partition A cuts the ring at multiples of ``k`` starting from
    machine 1; partition B is A shifted by ``floor(k/2)``.  A home
    machine belongs to one group in each partition and uses the group
    where its distance to the group edge is largest (ties prefer A).
    Requires ``k >= 2`` (with ``k = 1`` both partitions degenerate).
    """

    name = "dual"

    def __init__(self, m: int, k: int) -> None:
        super().__init__(m, k)
        self.shift = k // 2

    def _group_a(self, u: int) -> frozenset[int]:
        base = self.k * ((u - 1) // self.k)
        return frozenset(
            (j - 1) % self.m + 1 for j in range(base + 1, base + self.k + 1)
        )

    def _group_b(self, u: int) -> frozenset[int]:
        # shift the ring by `shift`, partition, shift back
        v = (u - 1 - self.shift) % self.m + 1
        base = self.k * ((v - 1) // self.k)
        return frozenset(
            (j - 1 + self.shift) % self.m + 1 for j in range(base + 1, base + self.k + 1)
        )

    @staticmethod
    def _centrality(u: int, group: frozenset[int], m: int) -> int:
        """Minimum ring distance from ``u`` to a machine outside the
        group (larger = more central)."""
        outside = set(range(1, m + 1)) - group
        if not outside:
            return m
        return min(
            min((u - x) % m, (x - u) % m) for x in outside
        )

    def _replicas(self, u: int) -> frozenset[int]:
        a = self._group_a(u)
        b = self._group_b(u)
        if self._centrality(u, b, self.m) > self._centrality(u, a, self.m):
            return b
        return a


class RandomKSets(ReplicationStrategy):
    """Deterministic pseudo-random ``k``-subsets per home machine.

    The subset of home ``u`` is derived from ``blake2b(salt:u)``, so
    the layout is stable across runs and processes (a real system
    would store it in cluster metadata).
    """

    name = "random_k"

    def __init__(self, m: int, k: int, salt: str = "layout") -> None:
        super().__init__(m, k)
        self.salt = salt

    def _replicas(self, u: int) -> frozenset[int]:
        chosen = {u}
        counter = 0
        while len(chosen) < self.k:
            digest = hashlib.blake2b(
                f"{self.salt}:{u}:{counter}".encode(), digest_size=8
            ).digest()
            chosen.add(int.from_bytes(digest, "big") % self.m + 1)
            counter += 1
        return frozenset(chosen)


class MirroredIntervals(ReplicationStrategy):
    """Ring intervals alternating direction by home parity: odd homes
    replicate on successors, even homes on predecessors."""

    name = "mirrored"

    def _replicas(self, u: int) -> frozenset[int]:
        if u % 2 == 1:
            return ring_interval(u, self.k, self.m)
        start = (u - self.k) % self.m + 1
        return ring_interval(start, self.k, self.m)


#: Strategy constructors used by the exploration harness (the paper's
#: two plus the candidates above; ``disjoint`` is the guaranteed
#: baseline).
EXPLORATION_STRATEGIES = {
    "disjoint": DisjointIntervals,
    "overlapping": OverlappingIntervals,
    "dual": DualPartition,
    "random_k": RandomKSets,
    "mirrored": MirroredIntervals,
}
