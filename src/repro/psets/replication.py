"""Replication strategies of Section 7.2 (Figure 9).

Starting from tasks that can only run on one machine :math:`M_u`
(un-replicated data), a replication strategy extends the processing
set to an interval :math:`I_k(u)` of ``k`` machines:

* **Overlapping intervals** — ``m`` distinct intervals arranged on a
  ring, each machine starting its own window of ``k`` successors.
  This is the standard Dynamo/Cassandra scheme.  Bad worst case for
  EFT (Theorems 8–10) but the best practical max-load (Figure 10).
* **Disjoint intervals** — the cluster is cut into ``ceil(m/k)``
  consecutive groups of ``k`` machines (the last group may be
  shorter).  Disjoint sets give EFT a ``(3 - 2/k)`` guarantee
  (Corollary 1).

Both are exposed as :class:`ReplicationStrategy` objects mapping a home
machine ``u`` to its replica set, and can rewrite whole instances.  A
strategy builds each home's set once and hands out that same immutable
frozenset on every later call, so an instance generated from it holds
at most ``m`` distinct set objects.  Sets are values: nothing may rely
on their identity.
"""

from __future__ import annotations

from typing import Iterable

from ..core.task import Instance, Task
from .sets import ring_interval

__all__ = [
    "ReplicationStrategy",
    "NoReplication",
    "OverlappingIntervals",
    "DisjointIntervals",
    "get_strategy",
    "replicate_instance",
]


class ReplicationStrategy:
    """Maps a home machine to the set of machines holding its data.

    Subclasses define :meth:`_replicas`; :meth:`replicas` checks the
    home and memoises the set per home.
    """

    name = "abstract"

    def __init__(self, m: int, k: int) -> None:
        if not (1 <= k <= m):
            raise ValueError(f"replication factor k={k} outside 1..{m}")
        self.m = m
        self.k = k
        # slot u holds the set of home u once built; a list, so a
        # non-integral home fails the index instead of hitting the memo
        self._sets: list[frozenset[int] | None] = [None] * (m + 1)

    def replicas(self, u: int) -> frozenset[int]:
        """Replica set :math:`I_k(u)` of data homed on machine ``u``
        (the same frozenset object on every call)."""
        if not (1 <= u <= self.m):
            raise ValueError(f"machine {u} outside 1..{self.m}")
        s = self._sets[u]
        if s is None:
            s = self._sets[u] = self._replicas(u)
        return s

    def _replicas(self, u: int) -> frozenset[int]:
        """Build the replica set of home ``1 <= u <= m``."""
        raise NotImplementedError

    def all_sets(self) -> list[frozenset[int]]:
        """Replica sets of every machine ``1..m`` (may repeat)."""
        return [self.replicas(u) for u in range(1, self.m + 1)]

    def transfer_matrix(self):
        """Boolean matrix ``A[i-1, j-1]`` = machine ``i`` may serve work
        homed on machine ``j`` (``M_i ∈ I_k(j)``) — the support of the
        LP variables :math:`a_{ij}` of Equation (15d)."""
        import numpy as np

        a = np.zeros((self.m, self.m), dtype=bool)
        for j in range(1, self.m + 1):
            for i in self.replicas(j):
                a[i - 1, j - 1] = True
        return a

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(m={self.m}, k={self.k})"


class NoReplication(ReplicationStrategy):
    """Degenerate strategy: each task stays pinned to its home machine
    (``|M_i| = 1``, the un-replicated key-value store of §7.1)."""

    name = "none"

    def __init__(self, m: int, k: int = 1) -> None:
        super().__init__(m, 1)

    def _replicas(self, u: int) -> frozenset[int]:
        return frozenset({u})


class OverlappingIntervals(ReplicationStrategy):
    """Ring replication: ``I_k(u) = {u, u+1, ..., u+k-1}`` mod ``m``.

    There are ``m`` distinct intervals; consecutive home machines have
    overlapping replica sets (Figure 9, bottom rows).
    """

    name = "overlapping"

    def _replicas(self, u: int) -> frozenset[int]:
        return ring_interval(u, self.k, self.m)


class DisjointIntervals(ReplicationStrategy):
    """Partition replication: ``I_k(u) = {u'+1, ..., min(m, u'+k)}``
    with ``u' = k * floor((u-1)/k)`` (Figure 9, middle rows).

    The last group is shorter when ``k`` does not divide ``m``.
    """

    name = "disjoint"

    def _replicas(self, u: int) -> frozenset[int]:
        base = self.k * ((u - 1) // self.k)
        return frozenset(range(base + 1, min(self.m, base + self.k) + 1))

    def groups(self) -> list[frozenset[int]]:
        """The ``ceil(m/k)`` disjoint groups, in ring order."""
        out = []
        u = 1
        while u <= self.m:
            g = self.replicas(u)
            out.append(g)
            u = max(g) + 1
        return out


_STRATEGIES = {
    "none": NoReplication,
    "overlapping": OverlappingIntervals,
    "disjoint": DisjointIntervals,
}


def get_strategy(name: str | ReplicationStrategy, m: int, k: int) -> ReplicationStrategy:
    """Resolve a strategy by name, or pass an instance through."""
    if isinstance(name, ReplicationStrategy):
        return name
    try:
        cls = _STRATEGIES[name]
    except KeyError:
        raise ValueError(f"unknown replication strategy {name!r}; known: {sorted(_STRATEGIES)}") from None
    return cls(m, k)


def replicate_instance(
    instance: Instance,
    strategy: str | ReplicationStrategy,
    k: int,
    homes: Iterable[int] | None = None,
) -> Instance:
    """Rewrite an instance's processing sets through a replication
    strategy.

    ``homes`` gives the home machine of each task; by default the home
    is the task's current (singleton) processing set.  Tasks keep their
    ids, releases and sizes; only :math:`\\mathcal{M}_i` changes —
    exactly the :math:`\\mathcal{M}_i \\to \\mathcal{M}'_i`
    construction of Section 7.2.
    """
    strat = get_strategy(strategy, instance.m, k)
    if homes is None:
        home_list = []
        for t in instance:
            ms = t.eligible(instance.m)
            if len(ms) != 1:
                raise ValueError(
                    f"task {t.tid}: cannot infer home from non-singleton set {sorted(ms)}; "
                    "pass homes= explicitly"
                )
            home_list.append(next(iter(ms)))
    else:
        home_list = list(homes)
        if len(home_list) != instance.n:
            raise ValueError("homes length must match task count")
    new_tasks = tuple(
        Task(
            tid=t.tid,
            release=t.release,
            proc=t.proc,
            machines=strat.replicas(h),
            key=t.key,
        )
        for t, h in zip(instance, home_list)
    )
    return Instance(m=instance.m, tasks=new_tasks)
