"""The LP-driven rebalance control loop.

The paper's Equation (15) LP computes, for a popularity vector and a
placement, the largest arrival rate :math:`\\lambda^*` the cluster can
absorb.  Offline that is Figure 10; *online* it is a saturation
signal: estimate the popularity from what actually arrived, solve the
LP against the **live** placement, and compare the observed offered
work rate against :math:`\\lambda^*`.  When the observed rate climbs
past ``headroom * lambda^*`` the placement is about to saturate, and
the controller proposes a new one.

The proposal search is deliberately small and deterministic — a
greedy widen loop.  Each round picks the home with the highest
*pressure* (estimated popularity divided by current replica count,
i.e. the per-replica share of its work; ties to the smallest home) and
extends its interval one machine clockwise, re-solving the LP (cached,
:func:`repro.maxload.max_load_lp_cached`) until the headroom test
passes or ``max_rounds``/``max_k`` bounds the growth.  Every proposal
stays inside the paper's consecutive-interval family by construction
(:class:`~repro.rebalance.placement.IntervalPlacement`), so the
Section 5/6 structure results keep applying to the *rebalanced*
system.  Optionally, a ``low_water`` mark narrows the coldest
oversized home when utilisation falls far below capacity — hysteresis
(``low_water < headroom``) keeps widen/narrow from oscillating.

The controller only *proposes*; enacting a proposal (migrating queued
work, charging warmup) is the serve layer's ``apply_placement``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..maxload.lp import max_load_lp_cached
from .estimator import PopularityEstimator
from .placement import IntervalPlacement

__all__ = ["RebalanceConfig", "RebalanceController", "RebalanceDecision"]


@dataclass(frozen=True)
class RebalanceConfig:
    """Tuning of the control loop.

    ``headroom`` is the trigger fraction: rebalance when the observed
    work rate exceeds ``headroom * lambda*`` (0.8 = act at 80 % of LP
    capacity).  ``math.inf`` (or any huge value) disables triggering
    while keeping the cadence observable — the no-trigger path the
    byte-identity tests pin.  ``warmup`` is the virtual-time penalty a
    newly added replica pays before serving (a setup time in the sense
    of Mäcker et al.).
    """

    cadence: float = 50.0
    window: float = 100.0
    headroom: float = 0.8
    warmup: float = 5.0
    max_k: int | None = None
    max_rounds: int = 8
    low_water: float | None = None

    def __post_init__(self) -> None:
        if self.cadence <= 0:
            raise ValueError("cadence must be > 0")
        if self.window <= 0:
            raise ValueError("window must be > 0")
        if self.headroom <= 0:
            raise ValueError("headroom must be > 0")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.low_water is not None and not (0 < self.low_water < self.headroom):
            raise ValueError("low_water must lie in (0, headroom)")

    def to_dict(self) -> dict[str, Any]:
        return {
            "cadence": self.cadence,
            "window": self.window,
            "headroom": self.headroom,
            "warmup": self.warmup,
            "max_k": self.max_k,
            "max_rounds": self.max_rounds,
            "low_water": self.low_water,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "RebalanceConfig":
        return RebalanceConfig(
            cadence=float(data.get("cadence", 50.0)),
            window=float(data.get("window", 100.0)),
            headroom=float(data.get("headroom", 0.8)),
            warmup=float(data.get("warmup", 5.0)),
            max_k=None if data.get("max_k") is None else int(data["max_k"]),
            max_rounds=int(data.get("max_rounds", 8)),
            low_water=None if data.get("low_water") is None else float(data["low_water"]),
        )


@dataclass(frozen=True)
class RebalanceDecision:
    """Outcome of one cadence check — triggered or not, every check is
    a versioned trace event, so replay can verify the *absence* of
    placement changes too."""

    version: int  #: placement version after this decision
    time: float
    triggered: bool
    work_rate: float
    lam_star: float  #: LP capacity of the placement entering the check
    lam_star_after: float | None  #: capacity of the proposal (triggered only)
    changes: tuple[tuple[int, tuple[int, int], tuple[int, int]], ...]
    added: tuple[int, ...]  #: machines owing warmup


class RebalanceController:
    """Cadenced estimate → solve → propose loop over a live placement.

    The controller owns the authoritative placement (``.placement``)
    and its monotone ``.version``; the serve layer reads the proposal
    off each triggered :class:`RebalanceDecision` and enacts it.
    """

    def __init__(
        self,
        placement: IntervalPlacement,
        config: RebalanceConfig | None = None,
        estimator: PopularityEstimator | None = None,
    ) -> None:
        self.config = config if config is not None else RebalanceConfig()
        self.placement = placement
        self.estimator = (
            estimator
            if estimator is not None
            else PopularityEstimator(placement.m, self.config.window)
        )
        if self.estimator.m != placement.m:
            raise ValueError(
                f"estimator has m={self.estimator.m}, placement has m={placement.m}"
            )
        self.version = 0
        self.decisions: list[RebalanceDecision] = []
        self._next_due = self.config.cadence

    # -- observation ----------------------------------------------------------
    def observe(self, now: float, home: int, proc: float) -> None:
        """Feed one admitted arrival (dispatch order)."""
        self.estimator.observe(now, home, proc)

    def due(self, now: float) -> bool:
        """Whether a cadence check is owed at or before ``now``."""
        return now >= self._next_due

    @property
    def next_due(self) -> float:
        """Virtual time of the next owed cadence check."""
        return self._next_due

    # -- the control step ------------------------------------------------------
    def step(self, now: float) -> RebalanceDecision:
        """Run one cadence check at ``now``.  Always returns a
        decision (``triggered=False`` when the placement holds); the
        next check is owed one cadence after this one's slot."""
        while self._next_due <= now:
            self._next_due += self.config.cadence
        weights = self.estimator.estimate(now)
        rate = self.estimator.work_rate(now)
        base = max_load_lp_cached(weights, self.placement)
        proposal = self._propose(weights, rate, base.lam)
        if proposal is None:
            decision = RebalanceDecision(
                version=self.version,
                time=now,
                triggered=False,
                work_rate=rate,
                lam_star=base.lam,
                lam_star_after=None,
                changes=(),
                added=(),
            )
            self.decisions.append(decision)
            return decision
        new_placement, lam_after = proposal
        changes = tuple(self.placement.diff(new_placement))
        added = tuple(sorted(self.placement.added_machines(new_placement)))
        self.version += 1
        self.placement = new_placement
        decision = RebalanceDecision(
            version=self.version,
            time=now,
            triggered=True,
            work_rate=rate,
            lam_star=base.lam,
            lam_star_after=lam_after,
            changes=changes,
            added=added,
        )
        self.decisions.append(decision)
        return decision

    def _propose(
        self, weights: np.ndarray, rate: float, lam_base: float
    ) -> tuple[IntervalPlacement, float] | None:
        """Greedy proposal, or ``None`` when the placement holds."""
        cfg = self.config
        if rate > cfg.headroom * lam_base:
            return self._widen(weights, rate, lam_base)
        if cfg.low_water is not None and rate < cfg.low_water * lam_base:
            return self._narrow(weights, rate)
        return None

    def _widen(
        self, weights: np.ndarray, rate: float, lam_base: float
    ) -> tuple[IntervalPlacement, float] | None:
        cfg = self.config
        cap = min(self.placement.m, cfg.max_k) if cfg.max_k is not None else self.placement.m
        cur = self.placement
        lam_cur = lam_base
        improved = False
        for _ in range(cfg.max_rounds):
            candidates = [
                u for u in range(1, cur.m + 1) if cur.interval(u)[1] < cap
            ]
            if not candidates:
                break
            # Hottest per-replica share first; smallest home on ties.
            u = max(candidates, key=lambda h: (weights[h - 1] / cur.interval(h)[1], -h))
            nxt = cur.widen(u)
            lam_next = max_load_lp_cached(weights, nxt).lam
            if lam_next <= lam_cur + 1e-12:
                break
            cur, lam_cur, improved = nxt, lam_next, True
            if rate <= cfg.headroom * lam_cur:
                break
        return (cur, lam_cur) if improved else None

    def _narrow(
        self, weights: np.ndarray, rate: float
    ) -> tuple[IntervalPlacement, float] | None:
        cfg = self.config
        cur = self.placement
        # Coldest over-replicated home; largest interval on ties.
        candidates = [u for u in range(1, cur.m + 1) if cur.interval(u)[1] > 1]
        if not candidates:
            return None
        u = min(candidates, key=lambda h: (weights[h - 1] / cur.interval(h)[1], -cur.interval(h)[1], h))
        nxt = cur.narrow(u)
        lam_next = max_load_lp_cached(weights, nxt).lam
        # Only shed the replica if the shrunk placement still clears
        # the headroom test — narrowing must never cause the next
        # check to immediately widen back.
        if rate > cfg.headroom * lam_next:
            return None
        return (nxt, lam_next)
