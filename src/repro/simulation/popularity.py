"""Machine popularity model of Section 7.1.

Each task requests a key held by exactly one *home* machine; machine
:math:`M_j` is requested with probability :math:`P(E_j)`.  The paper
models popularity with a Zipf distribution,

.. math::

    P(E_j) = \\frac{1}{j^s \\, H_{m,s}},

where :math:`s \\ge 0` is the shape and :math:`H_{m,s}` the
:math:`m`-th generalised harmonic number of order :math:`s`, and
studies three arrangements (Figure 8):

* **Uniform** (:math:`s = 0`): all machines equally popular;
* **Worst-case** (:math:`s > 0`, natural order): load decreases
  monotonically with the machine index, concentrating work on the
  first machines;
* **Shuffled** (:math:`s > 0`, random permutation): realistic clusters
  where hot keys land anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "generalized_harmonic",
    "zipf_weights",
    "MachinePopularity",
    "uniform_case",
    "worst_case",
    "shuffled_case",
]


def generalized_harmonic(m: int, s: float) -> float:
    """:math:`H_{m,s} = \\sum_{j=1}^{m} j^{-s}`."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return float(np.sum(np.arange(1, m + 1, dtype=float) ** (-s)))


def zipf_weights(m: int, s: float) -> np.ndarray:
    """Zipf probabilities :math:`P(E_j) = 1/(j^s H_{m,s})`, ``j=1..m``.

    ``s = 0`` degenerates to the uniform distribution.
    """
    if s < 0:
        raise ValueError("Zipf shape s must be >= 0")
    j = np.arange(1, m + 1, dtype=float)
    w = j ** (-s)
    return w / w.sum()


@dataclass(frozen=True)
class MachinePopularity:
    """A concrete machine-popularity distribution.

    ``weights[j-1]`` is :math:`P(E_j)`.  ``case`` records which of the
    paper's three arrangements produced it.
    """

    weights: np.ndarray
    case: str
    s: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a 1-D non-empty array")
        if np.any(w < 0) or not np.isclose(w.sum(), 1.0):
            raise ValueError("weights must be non-negative and sum to 1")
        object.__setattr__(self, "weights", w)

    def _key(self) -> tuple[bytes, str, float]:
        return self.weights.tobytes(), self.case, self.s

    # Value semantics over the weights' bytes: the generated ``__eq__``
    # would compare the arrays elementwise and the generated hash
    # would hash an ndarray.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MachinePopularity):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def m(self) -> int:
        return int(self.weights.size)

    def machine_loads(self, lam: float) -> np.ndarray:
        """Average arriving work per machine and time unit,
        :math:`\\lambda P(E_j)` (Figure 8's bars)."""
        return lam * self.weights

    def max_load_unreplicated(self) -> float:
        """Maximum feasible :math:`\\lambda` without replication:
        :math:`\\lambda \\le 1 / \\max_j P(E_j)` (Section 7.2)."""
        return float(1.0 / self.weights.max())

    def sample_homes(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` home machines (1-based indices) i.i.d. from the
        distribution."""
        return rng.choice(np.arange(1, self.m + 1), size=n, p=self.weights)


def uniform_case(m: int) -> MachinePopularity:
    """The Uniform case (``s = 0``)."""
    return MachinePopularity(weights=zipf_weights(m, 0.0), case="uniform", s=0.0)


def worst_case(m: int, s: float) -> MachinePopularity:
    """The Worst-case: Zipf in natural (monotonically decreasing) order."""
    return MachinePopularity(weights=zipf_weights(m, s), case="worst", s=s)


def shuffled_case(
    m: int, s: float, rng: np.random.Generator | int | None = None
) -> MachinePopularity:
    """The Shuffled case: Zipf weights under a uniform random machine
    permutation (no prior knowledge of which machines are hot)."""
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    w = zipf_weights(m, s)
    return MachinePopularity(weights=w[gen.permutation(m)], case="shuffled", s=s)
