"""Random generators of structured processing-set families.

Used by tests (property-based and example-based) and by the empirical
competitive-ratio studies: generate a family of sets guaranteed to have
a given structure, then attach them to random task streams.
"""

from __future__ import annotations

import numpy as np

from .sets import interval, ring_interval

__all__ = [
    "random_interval_family",
    "random_nested_family",
    "random_inclusive_family",
    "random_disjoint_family",
]


def _rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    return rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)


def random_interval_family(
    n: int, m: int, rng: np.random.Generator | int | None = None, *, ring: bool = False
) -> list[frozenset[int]]:
    """``n`` random (linear or ring) intervals over ``m`` machines."""
    gen = _rng(rng)
    out = []
    for _ in range(n):
        if ring:
            start = int(gen.integers(1, m + 1))
            size = int(gen.integers(1, m + 1))
            out.append(ring_interval(start, size, m))
        else:
            a = int(gen.integers(1, m + 1))
            b = int(gen.integers(a, m + 1))
            out.append(interval(a, b, m))
    return out


def random_nested_family(
    n: int, m: int, rng: np.random.Generator | int | None = None
) -> list[frozenset[int]]:
    """``n`` sets drawn from a random laminar family over ``1..m``.

    Builds a random binary laminar decomposition of ``[1, m]`` (always
    nested) and samples its cells.
    """
    gen = _rng(rng)
    cells: list[frozenset[int]] = []

    def split(a: int, b: int) -> None:
        cells.append(interval(a, b))
        if b - a + 1 >= 2 and gen.random() < 0.8:
            cut = int(gen.integers(a, b))
            split(a, cut)
            split(cut + 1, b)

    split(1, m)
    idx = gen.integers(0, len(cells), size=n)
    return [cells[int(i)] for i in idx]


def random_inclusive_family(
    n: int, m: int, rng: np.random.Generator | int | None = None
) -> list[frozenset[int]]:
    """``n`` sets drawn from a random inclusion chain over ``1..m``.

    Chain links are prefixes ``{1..s}`` after a random machine
    permutation, guaranteeing pairwise comparability.
    """
    gen = _rng(rng)
    perm = gen.permutation(np.arange(1, m + 1))
    sizes = sorted(set(int(s) for s in gen.integers(1, m + 1, size=max(1, n // 2))) | {m})
    chain = [frozenset(int(x) for x in perm[:s]) for s in sizes]
    idx = gen.integers(0, len(chain), size=n)
    return [chain[int(i)] for i in idx]


def random_disjoint_family(
    n: int, m: int, rng: np.random.Generator | int | None = None
) -> list[frozenset[int]]:
    """``n`` sets drawn from a random partition of ``1..m`` into
    consecutive groups (pairwise equal-or-disjoint)."""
    gen = _rng(rng)
    groups: list[frozenset[int]] = []
    a = 1
    while a <= m:
        size = int(gen.integers(1, m - a + 2))
        groups.append(interval(a, a + size - 1))
        a += size
    idx = gen.integers(0, len(groups), size=n)
    return [groups[int(i)] for i in idx]
