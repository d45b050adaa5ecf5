"""Speed-EFT — speed-aware earliest finish time on related machines.

Bansal & Kulkarni (and Bansal & Cloostermans, Table 1's ``Q`` rows)
study flow time on related machines.  :class:`SpeedEFT` promotes the
``repro.related`` Greedy scheduler to a first-class zoo policy: it
*is* :class:`~repro.related.GreedyRelated` — same lowering path, same
core :class:`~repro.core.dispatch.ImmediateDispatchScheduler` driver,
speeds expressed solely through the ``service``/``charge`` hooks —
wrapped in a registry-friendly constructor.

``task.proc`` is interpreted as *work*; the realised execution time on
machine :math:`j` is :math:`w_i / s_j`.  Placement minimises the
finish time :math:`\\max(r_i, C_j) + w_i/s_j` (ties: faster machine,
then lower index), which with unit speeds coincides with EFT-Min.
The default cluster is a two-tier fleet — a quarter of the machines
run at ``speedup`` — the smallest configuration where speed-awareness
visibly beats speed-blind EFT.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..related.model import SpeedCluster
from ..related.schedulers import GreedyRelated

__all__ = ["SpeedEFT"]


class SpeedEFT(GreedyRelated):
    """Speed-aware EFT (Greedy on related machines) for the registry.

    Parameters
    ----------
    m:
        Number of machines.
    speeds:
        Optional explicit speed vector (length ``m``) or a
        :class:`~repro.related.SpeedCluster`.  Default: two-tier with
        ``max(1, m // 4)`` machines at ``speedup``, the rest at 1.
    speedup:
        Fast-tier speed of the default cluster.
    """

    def __init__(
        self,
        m: int,
        speeds: Sequence[float] | SpeedCluster | None = None,
        speedup: float = 4.0,
    ) -> None:
        if speeds is None:
            cluster = SpeedCluster.two_tier(m, fast=max(1, m // 4), speedup=speedup)
        elif isinstance(speeds, SpeedCluster):
            cluster = speeds
        else:
            cluster = SpeedCluster(np.asarray(speeds, dtype=float))
        if cluster.m != m:
            raise ValueError(f"speeds have m={cluster.m}, scheduler wants m={m}")
        super().__init__(cluster)
        self.name = "Speed-EFT"
