"""Mutable-by-copy interval placements for online re-replication.

The paper's replication strategies (:mod:`repro.psets.replication`)
are *fixed* maps from a home machine to its replica interval.  Online
rebalancing needs to move those intervals while the system runs —
widen a hot home's interval, shift it off a saturated region, narrow a
cold one — without ever leaving the family of structures the paper's
guarantees cover: every replica set must stay a circular interval of
the ``m``-ring (checked with
:func:`repro.psets.sets.is_circular_interval`) and must contain its
home machine (the home holds the primary copy of its own data).

:class:`IntervalPlacement` represents one such placement explicitly as
a per-home ``(start, size)`` table.  It *is* a
:class:`~repro.psets.replication.ReplicationStrategy`, so everything
built on that contract — workload generation, the max-load LP's
transfer matrix, ``replicate_instance`` — consumes live placements
unchanged.  All edits return new placements (value semantics), which
is what makes rebalance decisions diffable and traceable.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..psets.replication import ReplicationStrategy
from ..psets.sets import is_circular_interval, ring_interval

__all__ = ["IntervalPlacement", "ring_start"]


def ring_start(s: frozenset[int] | set[int], m: int) -> int:
    """The start of a circular interval on the ``m``-ring: the unique
    member whose ring predecessor is outside the set (the minimum, for
    the full ring).  Raises if ``s`` is not a ring interval."""
    if not is_circular_interval(s, m):
        raise ValueError(f"{sorted(s)} is not a circular interval on the {m}-ring")
    if len(s) == m:
        return min(s)
    for j in sorted(s):
        pred = (j - 2) % m + 1
        if pred not in s:
            return j
    raise AssertionError("unreachable: proper ring interval has a start")


class IntervalPlacement(ReplicationStrategy):
    """An explicit per-home table of replica intervals on the ring.

    ``intervals[u] = (start, size)`` means home ``u``'s data lives on
    the circular interval of ``size`` machines beginning at ``start``.
    Invariants (enforced at construction): every home ``1..m`` has an
    entry, ``1 <= size <= m``, and ``u`` is inside its own interval.
    """

    name = "interval"

    def __init__(self, m: int, intervals: Mapping[int, tuple[int, int]]) -> None:
        if m < 1:
            raise ValueError("m must be >= 1")
        if sorted(intervals) != list(range(1, m + 1)):
            raise ValueError("intervals must cover every home machine 1..m exactly once")
        table: dict[int, tuple[int, int]] = {}
        sizes = []
        for u in range(1, m + 1):
            start, size = intervals[u]
            members = ring_interval(int(start), int(size), m)  # validates ranges
            if u not in members:
                raise ValueError(
                    f"home {u} outside its own interval [{start}, size {size}] — "
                    "the home must hold its primary copy"
                )
            table[u] = (int(start), int(size))
            sizes.append(int(size))
        super().__init__(m, max(sizes))
        self._intervals = table

    # -- ReplicationStrategy contract -----------------------------------------
    def _replicas(self, u: int) -> frozenset[int]:
        start, size = self._intervals[u]
        return ring_interval(start, size, self.m)

    # -- construction ----------------------------------------------------------
    @staticmethod
    def from_strategy(strat: ReplicationStrategy) -> "IntervalPlacement":
        """Snapshot any interval-structured strategy (overlapping ring,
        disjoint groups, no replication) as an explicit placement with
        the *same* replica sets."""
        table = {}
        for u in range(1, strat.m + 1):
            s = strat.replicas(u)
            table[u] = (ring_start(s, strat.m), len(s))
        return IntervalPlacement(strat.m, table)

    # -- interval edits (value semantics) --------------------------------------
    def _with(self, u: int, start: int, size: int) -> "IntervalPlacement":
        table = dict(self._intervals)
        table[u] = (start, size)
        return IntervalPlacement(self.m, table)

    def widen(self, u: int) -> "IntervalPlacement":
        """Extend home ``u``'s interval by one machine clockwise (one
        more successor replica, the Dynamo growth direction).  No-op at
        full ring."""
        start, size = self.interval(u)
        if size >= self.m:
            return self
        return self._with(u, start, size + 1)

    def narrow(self, u: int) -> "IntervalPlacement":
        """Drop home ``u``'s clockwise-last replica.  Refuses to shrink
        past the home itself (the tail is kept on the home's side)."""
        start, size = self.interval(u)
        if size <= 1:
            return self
        last = (start + size - 2) % self.m + 1
        if last == u:  # pragma: no cover - start == u keeps the home first
            raise ValueError(f"narrowing home {u} would drop its primary copy")
        return self._with(u, start, size - 1)

    def shift(self, u: int, delta: int) -> "IntervalPlacement":
        """Rotate home ``u``'s interval ``delta`` positions clockwise
        (negative: counter-clockwise).  The home must stay inside."""
        start, size = self.interval(u)
        return self._with(u, (start - 1 + delta) % self.m + 1, size)

    # -- inspection ------------------------------------------------------------
    def interval(self, u: int) -> tuple[int, int]:
        """``(start, size)`` of home ``u``'s interval."""
        if not (1 <= u <= self.m):
            raise ValueError(f"machine {u} outside 1..{self.m}")
        return self._intervals[u]

    def sets(self) -> dict[int, frozenset[int]]:
        """Replica set of every home, ``{u: frozenset}``."""
        return {u: self.replicas(u) for u in range(1, self.m + 1)}

    def validate(self) -> None:
        """Re-assert the paper's structure on every set (defence for
        placements deserialised or edited externally)."""
        for u in range(1, self.m + 1):
            s = self.replicas(u)
            if not is_circular_interval(s, self.m):  # pragma: no cover - by construction
                raise ValueError(f"home {u}: {sorted(s)} is not a ring interval")
            if u not in s:  # pragma: no cover - by construction
                raise ValueError(f"home {u} outside its replica set")

    def diff(self, other: "IntervalPlacement") -> list[tuple[int, tuple[int, int], tuple[int, int]]]:
        """Homes whose intervals differ, as ``(u, (start, size)_self,
        (start, size)_other)`` — the change list of a rebalance event."""
        if other.m != self.m:
            raise ValueError(f"placements have different m: {self.m} vs {other.m}")
        return [
            (u, self._intervals[u], other._intervals[u])
            for u in range(1, self.m + 1)
            if self._intervals[u] != other._intervals[u]
        ]

    def added_machines(self, new: "IntervalPlacement") -> frozenset[int]:
        """Machines joining at least one home's replica set under
        ``new`` — each must fetch that home's data before serving it,
        so each pays the warmup penalty once per rebalance."""
        out: set[int] = set()
        for u in range(1, self.m + 1):
            out |= new.replicas(u) - self.replicas(u)
        return frozenset(out)

    # -- serialisation ---------------------------------------------------------
    def to_dict(self) -> dict[str, list[int]]:
        return {str(u): [s, z] for u, (s, z) in sorted(self._intervals.items())}

    @staticmethod
    def from_dict(m: int, data: Mapping[str, Iterable[int]]) -> "IntervalPlacement":
        table = {int(u): (int(v[0]), int(v[1])) for u, v in ((u, list(v)) for u, v in data.items())}
        return IntervalPlacement(m, table)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntervalPlacement)
            and other.m == self.m
            and other._intervals == self._intervals
        )

    def __hash__(self) -> int:
        return hash((self.m, tuple(sorted(self._intervals.items()))))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"IntervalPlacement(m={self.m}, k_max={self.k})"
