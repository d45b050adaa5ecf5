"""Windowed popularity estimation from observed arrivals.

The rebalance controller cannot see the workload generator's true
:math:`P(E_j)` — a live system only observes requests.  The estimator
feeds every admitted arrival ``(time, home, proc)`` into per-machine
:class:`repro.obs.recorders.TimeSeries` (so the raw evidence rides
along in metric snapshots) and reduces a sliding window of them to:

* :meth:`estimate` — the empirical popularity vector over the window,
  work-weighted (a machine requested by few but heavy tasks *is* hot);
  uniform when the window is empty (no evidence, no bias);
* :meth:`work_rate` — offered work per unit time over the window, the
  :math:`\\lambda \\bar p` the controller compares against the LP's
  :math:`\\lambda^*`.

Both are pure functions of the observation sequence, so two runs over
the same stream estimate identically — the determinism the versioned
rebalance trace relies on.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from ..obs.recorders import MetricsRegistry, TimeSeries

__all__ = ["PopularityEstimator"]


class PopularityEstimator:
    """Sliding-window popularity and offered-work estimates.

    Parameters
    ----------
    m:
        Cluster size.
    window:
        Length of the sliding window, in virtual time.  Estimates
        cover ``(now - window, now]`` (half-open at the old edge, so an
        observation exactly ``window`` old has just left).
    registry:
        Registry receiving the per-machine arrival series (a private
        one by default; pass the serve registry to expose the evidence
        in snapshots).
    """

    def __init__(
        self, m: int, window: float, registry: MetricsRegistry | None = None
    ) -> None:
        if m < 1:
            raise ValueError("m must be >= 1")
        if window <= 0:
            raise ValueError("window must be > 0")
        self.m = m
        self.window = float(window)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._series: dict[int, TimeSeries] = {
            j: self.registry.series(f"rebalance_arrivals[{j}]") for j in range(1, m + 1)
        }
        self.n_observed = 0

    def observe(self, now: float, home: int, proc: float) -> None:
        """Record one arrival of ``proc`` work homed on ``home``.
        Times must be fed non-decreasing (the dispatch order)."""
        if not (1 <= home <= self.m):
            raise ValueError(f"home {home} outside 1..{self.m}")
        self._series[home].observe(now, proc)
        self.n_observed += 1

    def _window_work(self, series: TimeSeries, now: float) -> float:
        lo = bisect_right(series.times, now - self.window)
        hi = bisect_right(series.times, now)
        return float(sum(series.values[lo:hi]))

    def window_counts(self, now: float) -> np.ndarray:
        """Arrivals per machine inside the window (index ``j-1``)."""
        out = np.zeros(self.m)
        for j in range(1, self.m + 1):
            s = self._series[j]
            lo = bisect_right(s.times, now - self.window)
            hi = bisect_right(s.times, now)
            out[j - 1] = hi - lo
        return out

    def estimate(self, now: float) -> np.ndarray:
        """Empirical work-weighted popularity over the window — a
        probability vector directly consumable by the max-load LP.
        Uniform when the window holds no arrivals."""
        work = np.array([self._window_work(self._series[j], now) for j in range(1, self.m + 1)])
        total = work.sum()
        if total <= 0:
            return np.full(self.m, 1.0 / self.m)
        return work / total

    def work_rate(self, now: float) -> float:
        """Offered work per unit time over the window (the horizon is
        clipped to ``now`` early on, so the rate is not diluted before
        a full window of evidence exists)."""
        horizon = min(self.window, now)
        if horizon <= 0:
            return 0.0
        total = sum(self._window_work(self._series[j], now) for j in range(1, self.m + 1))
        return total / horizon
