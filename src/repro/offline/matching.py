"""Hopcroft–Karp maximum bipartite matching.

Own implementation (the offline unit-task optimum of
:mod:`repro.offline.unit_opt` reduces feasibility to matching); tested
against :mod:`networkx` in the test suite.  Runs in
:math:`O(E \\sqrt{V})`.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Mapping, Sequence

__all__ = ["hopcroft_karp"]

_INF = float("inf")


def hopcroft_karp(
    adjacency: Mapping[Hashable, Sequence[Hashable]],
) -> dict[Hashable, Hashable]:
    """Maximum matching of a bipartite graph.

    Parameters
    ----------
    adjacency:
        Maps each *left* vertex to its right-side neighbours.  Left and
        right vertex sets are implicitly disjoint (right vertices are
        whatever appears in the neighbour lists).

    Returns
    -------
    dict
        ``left -> right`` pairs of a maximum matching.
    """
    match_l: dict[Hashable, Hashable] = {}
    match_r: dict[Hashable, Hashable] = {}
    dist: dict[Hashable, float] = {}

    def bfs() -> bool:
        queue: deque = deque()
        for u in adjacency:
            if u not in match_l:
                dist[u] = 0.0
                queue.append(u)
            else:
                dist[u] = _INF
        found = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                w = match_r.get(v)
                if w is None:
                    found = True
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: Hashable) -> bool:
        for v in adjacency[u]:
            w = match_r.get(v)
            if w is None or (dist.get(w) == dist[u] + 1 and dfs(w)):
                match_l[u] = v
                match_r[v] = u
                return True
        dist[u] = _INF
        return False

    while bfs():
        for u in list(adjacency):
            if u not in match_l:
                dfs(u)
    return match_l
