"""Processing-set primitives: contiguous and circular machine intervals.

The paper's structures are defined over 1-based machine indices.  Two
interval flavours appear:

* a **linear interval** ``{M_j : a <= j <= b}``;
* a **wrapping interval** ``{M_j : j <= a or b <= j}`` — the complement
  form in the paper's ``M_i(interval)`` definition, equivalently a
  circular (ring) interval.  Rings are how Dynamo-style stores
  replicate (clockwise successors).

This module provides constructors and recognisers for both, used by
the structure classifiers and the replication strategies.
"""

from __future__ import annotations

__all__ = [
    "degraded_family",
    "interval",
    "ring_interval",
    "is_contiguous",
    "is_circular_interval",
]


def interval(a: int, b: int, m: int | None = None) -> frozenset[int]:
    """Linear interval ``{a, a+1, ..., b}`` (1-based, inclusive)."""
    if a < 1 or b < a:
        raise ValueError(f"invalid interval [{a}, {b}]")
    if m is not None and b > m:
        raise ValueError(f"interval [{a}, {b}] exceeds m={m}")
    return frozenset(range(a, b + 1))


def ring_interval(start: int, size: int, m: int) -> frozenset[int]:
    """Circular interval of ``size`` machines starting at ``start`` on a
    ring of ``m`` machines:
    ``{ M_j : j = (j'-1) mod m + 1, start <= j' <= start+size-1 }``
    (the overlapping replication set :math:`I_k(u)` of Section 7.2)."""
    if not (1 <= start <= m):
        raise ValueError(f"start {start} outside 1..{m}")
    if not (1 <= size <= m):
        raise ValueError(f"size {size} outside 1..{m}")
    return frozenset((j - 1) % m + 1 for j in range(start, start + size))


def is_contiguous(s: frozenset[int] | set[int]) -> bool:
    """Whether ``s`` is a linear interval of consecutive indices."""
    if not s:
        return False
    return max(s) - min(s) + 1 == len(s)


def is_circular_interval(s: frozenset[int] | set[int], m: int) -> bool:
    """Whether ``s`` is an interval on the ``m``-ring (contiguous, or
    contiguous after wrapping — i.e. its complement within ``1..m`` is
    contiguous), matching the paper's two-branch interval definition."""
    if not s:
        return False
    if any(j < 1 or j > m for j in s):
        raise ValueError(f"indices outside 1..{m}")
    if is_contiguous(s):
        return True
    complement = set(range(1, m + 1)) - set(s)
    return is_contiguous(complement)


def degraded_family(
    family: list[frozenset[int]] | tuple[frozenset[int], ...],
    alive: frozenset[int] | set[int],
) -> list[frozenset[int]]:
    """Intersect every processing set with the ``alive`` machines.

    A machine failure shrinks every set :math:`\\mathcal{M}_i` to
    :math:`\\mathcal{M}_i \\cap \\text{alive}` — the degraded-mode view
    the fault-injected simulator dispatches over.  Empty intersections
    are *kept* (as empty frozensets): a task whose whole set is down
    cannot run and must be parked; callers count those to quantify
    availability loss (e.g. the park-risk fraction reported by the
    ``faulted`` experiment).
    """
    alive = frozenset(alive)
    return [s & alive for s in family]
