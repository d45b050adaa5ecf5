"""Related machines (the ``Q`` environment of Table 1).

Machines have speeds :math:`s_1, \\dots, s_m`; a task of *work*
:math:`w_i` takes :math:`w_i / s_j` time on machine :math:`M_j`.  The
identical-machine model of the paper is the special case
:math:`s_j = 1`.  Table 1 cites three online algorithms for max-flow
on related machines (Bansal & Cloostermans): Greedy (≥ Ω(log m)),
Slow-Fit (≥ Ω(m)) and their 13.5-competitive combination Double-Fit;
this subpackage provides the substrate plus faithful Greedy and
Slow-Fit implementations so the environment column of Table 1 is
runnable, not just a citation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SpeedCluster"]


@dataclass(frozen=True)
class SpeedCluster:
    """A cluster of machines with heterogeneous speeds.

    ``speeds[j-1]`` is the speed of machine ``j``; all speeds must be
    positive.  Helper constructors cover the classic configurations.
    """

    speeds: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.speeds, dtype=float)
        if s.ndim != 1 or s.size < 1:
            raise ValueError("speeds must be a non-empty 1-D array")
        if np.any(s <= 0):
            raise ValueError("speeds must be positive")
        object.__setattr__(self, "speeds", s)
        # Plain floats (bit-identical to the array's) for the per-task
        # ``speed`` lookups of the dispatch hot path.
        object.__setattr__(self, "_speeds", tuple(s.tolist()))

    @property
    def m(self) -> int:
        return int(self.speeds.size)

    def speed(self, machine: int) -> float:
        """Speed of 1-based machine index."""
        if not (1 <= machine <= len(self._speeds)):
            raise ValueError(f"machine {machine} outside 1..{self.m}")
        return self._speeds[machine - 1]

    def exec_time(self, work: float, machine: int) -> float:
        """Execution time of ``work`` units on ``machine``."""
        return work / self.speed(machine)

    # -- constructors -----------------------------------------------------
    @staticmethod
    def identical(m: int) -> "SpeedCluster":
        """The paper's setting: all speeds 1."""
        return SpeedCluster(np.ones(m))

    @staticmethod
    def geometric(m: int, ratio: float = 2.0) -> "SpeedCluster":
        """Speeds ``ratio^0, ratio^1, ..`` — the configuration used by
        classic related-machine lower bounds."""
        if ratio <= 0:
            raise ValueError("ratio must be positive")
        return SpeedCluster(ratio ** np.arange(m, dtype=float))

    @staticmethod
    def two_tier(m: int, fast: int, speedup: float = 4.0) -> "SpeedCluster":
        """``fast`` machines of speed ``speedup``, the rest speed 1."""
        if not (0 <= fast <= m):
            raise ValueError("fast must be within 0..m")
        s = np.ones(m)
        s[:fast] = speedup
        return SpeedCluster(s)

