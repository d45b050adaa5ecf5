"""The maximum-load linear program (Equation 15 of the paper).

Given a machine popularity :math:`P(E_j)` and a replication strategy
with replica sets :math:`I_k(j)`, the LP finds the largest arrival rate
:math:`\\lambda` such that the popularity-weighted work can be routed
to machines without exceeding unit capacity:

.. math::

    \\max \\lambda \\quad \\text{s.t.} \\quad
    \\sum_i a_{ij} = \\lambda P(E_j) \\;\\; \\forall j, \\qquad
    \\sum_j a_{ij} \\le 1 \\;\\; \\forall i, \\qquad
    a_{ij} = 0 \\text{ if } M_i \\notin I_k(j), \\qquad
    a, \\lambda \\ge 0.

:math:`a_{ij}` is the rate of work homed on :math:`M_j` that machine
:math:`M_i` eventually serves.  The *max-load percentage* plotted in
Figure 10 is :math:`100 \\lambda^* / m`.

Solved with ``scipy.optimize.linprog`` (HiGHS).  Cross-checks:
:func:`max_load_flow` (binary search + own Dinic max-flow) and the
closed forms of :mod:`repro.maxload.closedform`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from ..psets.replication import ReplicationStrategy, get_strategy
from ..simulation.popularity import MachinePopularity
from .flow import Dinic

__all__ = [
    "DegeneratePopularityError",
    "MaxLoadSolution",
    "clear_solve_cache",
    "max_load_flow",
    "max_load_lp",
    "max_load_lp_cached",
    "max_load_percent",
    "solve_cache_info",
]


class DegeneratePopularityError(ValueError):
    """The popularity vector cannot drive the max-load LP.

    Raised for empty, non-finite, negative, zero-mass or
    not-summing-to-one inputs.  A zero-mass vector would otherwise
    surface as a numpy divide warning (the :math:`m / \\max_j P(E_j)`
    bound on :math:`\\lambda`) and an unbounded LP.  Subclasses
    :class:`ValueError` so existing ``except ValueError`` call sites
    keep working.
    """


@dataclass(frozen=True)
class MaxLoadSolution:
    """Result of the max-load LP."""

    lam: float  #: optimal arrival rate lambda*
    m: int
    transfer: np.ndarray  #: optimal a_{ij} matrix, shape (m, m)

    @property
    def load_percent(self) -> float:
        """Maximum average cluster load, in percent
        (:math:`100\\,\\lambda^*/m`)."""
        return 100.0 * self.lam / self.m


def _weights(popularity) -> np.ndarray:
    if isinstance(popularity, MachinePopularity):
        w = popularity.weights
    else:
        w = np.asarray(popularity, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise DegeneratePopularityError("popularity must be a probability vector")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise DegeneratePopularityError("popularity must be a probability vector")
    total = float(w.sum())
    if total <= 0.0:
        raise DegeneratePopularityError(
            "popularity has zero mass — no machine ever receives work"
        )
    if not np.isclose(total, 1.0):
        raise DegeneratePopularityError("popularity must be a probability vector")
    return w


def max_load_lp(
    popularity,
    strategy: str | ReplicationStrategy,
    k: int | None = None,
) -> MaxLoadSolution:
    """Solve Equation (15) exactly.

    ``popularity`` is a :class:`MachinePopularity` or a probability
    vector; ``strategy`` a name (with ``k``) or a bound strategy.
    """
    w = _weights(popularity)
    m = w.size
    if isinstance(strategy, str):
        if k is None:
            raise ValueError("k required when passing a strategy name")
        strat = get_strategy(strategy, m, k)
    else:
        strat = strategy
        if strat.m != m:
            raise ValueError(f"strategy has m={strat.m}, popularity has m={m}")
    allowed = strat.transfer_matrix()  # allowed[i-1, j-1]

    # Variables: a_{ij} flattened row-major (i major), then lambda.
    nvar = m * m + 1
    c = np.zeros(nvar)
    c[-1] = -1.0  # maximize lambda

    # Equality: sum_i a_ij - lambda P(E_j) = 0  for each j.
    a_eq = np.zeros((m, nvar))
    for j in range(m):
        for i in range(m):
            a_eq[j, i * m + j] = 1.0
        a_eq[j, -1] = -w[j]
    b_eq = np.zeros(m)

    # Inequality: sum_j a_ij <= 1 for each i.
    a_ub = np.zeros((m, nvar))
    for i in range(m):
        a_ub[i, i * m : (i + 1) * m] = 1.0
    b_ub = np.ones(m)

    bounds = []
    for i in range(m):
        for j in range(m):
            bounds.append((0.0, None) if allowed[i, j] else (0.0, 0.0))
    bounds.append((0.0, float(m) / w.max() if w.max() > 0 else None))

    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if not res.success:  # pragma: no cover - LP is always feasible (lambda = 0)
        raise RuntimeError(f"max-load LP failed: {res.message}")
    transfer = np.asarray(res.x[:-1]).reshape(m, m)
    return MaxLoadSolution(lam=float(res.x[-1]), m=m, transfer=transfer)


_CACHE_MAX = 128
_solve_cache: "OrderedDict[tuple, MaxLoadSolution]" = OrderedDict()
_cache_stats = {"hits": 0, "misses": 0}


def _placement_key(strat: ReplicationStrategy) -> tuple:
    """Hashable fingerprint of a placement: the replica set of every
    home, in home order.  Two strategies with identical sets — e.g. a
    named ring and an interval placement that happens to equal it —
    share cache entries."""
    return tuple(tuple(sorted(strat.replicas(u))) for u in range(1, strat.m + 1))


def max_load_lp_cached(
    popularity,
    strategy: str | ReplicationStrategy,
    k: int | None = None,
) -> MaxLoadSolution:
    """:func:`max_load_lp` behind a small LRU cache keyed by
    (popularity bytes, placement replica sets).

    The rebalance controller re-solves the LP on a cadence; between
    triggers both the estimated popularity (quantised) and the live
    placement are unchanged, so repeated solves are pure cache hits.
    """
    w = _weights(popularity)
    m = w.size
    if isinstance(strategy, str):
        if k is None:
            raise ValueError("k required when passing a strategy name")
        strat = get_strategy(strategy, m, k)
    else:
        strat = strategy
        if strat.m != m:
            raise ValueError(f"strategy has m={strat.m}, popularity has m={m}")
    key = (w.tobytes(), _placement_key(strat))
    hit = _solve_cache.get(key)
    if hit is not None:
        _solve_cache.move_to_end(key)
        _cache_stats["hits"] += 1
        return hit
    _cache_stats["misses"] += 1
    sol = max_load_lp(w, strat)
    _solve_cache[key] = sol
    while len(_solve_cache) > _CACHE_MAX:
        _solve_cache.popitem(last=False)
    return sol


def solve_cache_info() -> dict[str, int]:
    """Hit/miss/size counters of the :func:`max_load_lp_cached` LRU."""
    return {"size": len(_solve_cache), "hits": _cache_stats["hits"], "misses": _cache_stats["misses"]}


def clear_solve_cache() -> None:
    """Empty the LRU and reset its counters (test isolation)."""
    _solve_cache.clear()
    _cache_stats["hits"] = _cache_stats["misses"] = 0


def max_load_flow(
    popularity,
    strategy: str | ReplicationStrategy,
    k: int | None = None,
    tol: float = 1e-7,
) -> float:
    """The same optimum via binary search on :math:`\\lambda` with a
    max-flow feasibility oracle (own Dinic) — an independent
    cross-check of the LP.

    Network: source → home ``j`` with capacity :math:`\\lambda P(E_j)`,
    home ``j`` → server ``i`` (∞) for :math:`M_i \\in I_k(j)`, server
    ``i`` → sink (1).  :math:`\\lambda` is feasible iff the max flow
    saturates the source.
    """
    w = _weights(popularity)
    m = w.size
    if isinstance(strategy, str):
        if k is None:
            raise ValueError("k required when passing a strategy name")
        strat = get_strategy(strategy, m, k)
    else:
        strat = strategy

    def feasible(lam: float) -> bool:
        # nodes: 0 source, 1..m homes, m+1..2m servers, 2m+1 sink
        net = Dinic(2 * m + 2)
        sink = 2 * m + 1
        for j in range(1, m + 1):
            net.add_edge(0, j, lam * w[j - 1])
            for i in strat.replicas(j):
                net.add_edge(j, m + i, float("inf"))
        for i in range(1, m + 1):
            net.add_edge(m + i, sink, 1.0)
        return net.max_flow(0, sink) >= lam - tol

    lo, hi = 0.0, float(m) / w.max()
    for _ in range(60):
        mid = (lo + hi) / 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def max_load_percent(
    popularity, strategy: str | ReplicationStrategy, k: int | None = None
) -> float:
    """Maximum average cluster load in percent (Figure 10's scale)."""
    return max_load_lp(popularity, strategy, k).load_percent
