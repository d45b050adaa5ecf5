"""Competitive-ratio bounds: the paper's Table 2 and the Table 1 registry.

Each bound of Table 2 (Theorems 3, 4, 5, 7, 8–10 and Corollary 1) is
computed here and nowhere else: every adversary's
``theoretical_bound()`` and ``repro table2`` read these functions.  The
log bounds are exact integer arithmetic, so they hold at exact powers
for any ``m``.  :data:`TABLE1` lists the known results on max-flow
minimisation that ``repro table1`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "fifo_competitive_ratio",
    "eft_disjoint_ratio",
    "inclusive_lower_bound",
    "fixed_k_lower_bound",
    "nested_lower_bound",
    "interval_any_lower_bound",
    "eft_interval_lower_bound",
    "general_lower_bound",
    "BoundEntry",
    "TABLE1",
]


# -- closed forms ------------------------------------------------------------
def fifo_competitive_ratio(m: int) -> float:
    """Theorem 1 (Bender et al.): FIFO/EFT is ``(3 - 2/m)``-competitive
    on ``P | online-r_i | Fmax``."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return 3.0 - 2.0 / m


def eft_disjoint_ratio(k: int) -> float:
    """Corollary 1: EFT is ``(3 - 2/k)``-competitive on disjoint
    processing sets of size ``k``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 3.0 - 2.0 / k


def inclusive_lower_bound(m: int) -> int:
    """Theorem 3: any immediate-dispatch algorithm is at least
    ``floor(log2(m) + 1)``-competitive on inclusive sets."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return int(m).bit_length()


def fixed_k_lower_bound(m: int, k: int) -> int:
    """Theorem 4: any immediate-dispatch algorithm is at least
    ``floor(log_k(m))``-competitive on (unstructured) sets of size
    ``k``."""
    if m < 1 or k < 2:
        raise ValueError("need m >= 1 and k >= 2")
    levels, power = 0, k
    while power <= m:  # the largest e with k**e <= m
        levels, power = levels + 1, power * k
    return levels


def nested_lower_bound(m: int) -> float:
    """Theorem 5: any online algorithm is at least
    ``(1/3) * floor(log2(m) + 2)``-competitive on nested sets."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return (int(m).bit_length() + 1) / 3.0


def interval_any_lower_bound() -> float:
    """Theorem 7: any online algorithm is at least 2-competitive on
    fixed-size interval sets."""
    return 2.0


def eft_interval_lower_bound(m: int, k: int) -> int:
    """Theorems 8–10: EFT (Min, Rand or any tie-break) is at least
    ``(m - k + 1)``-competitive on fixed-size-``k`` interval sets,
    for ``1 < k < m``."""
    if not (1 < k < m):
        raise ValueError("the bound requires 1 < k < m")
    return m - k + 1


def general_lower_bound(m: int) -> float:
    """Anand et al.: ``Omega(m)`` lower bound for arbitrary processing
    sets — returned here as the linear witness ``m / 2`` commonly used
    to instantiate the Omega (any linear function works for shape
    checks; the registry records the asymptotic form separately)."""
    return m / 2.0


# -- Table 1 registry ---------------------------------------------------------
@dataclass(frozen=True)
class BoundEntry:
    """One row of a results table."""

    setting: str  #: machine environment / structure
    algorithm: str  #: algorithm or algorithm class
    kind: str  #: "upper" (competitive guarantee) or "lower" (impossibility)
    expression: str  #: human-readable bound
    reference: str  #: theorem / citation
    formula: object = None  #: callable evaluating the bound, if closed-form


#: Table 1 — existing results on online/offline max-flow minimisation.
TABLE1: tuple[BoundEntry, ...] = (
    BoundEntry("P, non-preemptive", "FIFO", "upper", "3 - 2/m", "Bender et al. [11]", fifo_competitive_ratio),
    BoundEntry("P, non-preemptive", "any online", "lower", ">= 2 - 1/m", "Ambühl et al. [19]", lambda m: 2 - 1 / m),
    BoundEntry("P, preemptive", "FIFO", "upper", "3 - 2/m", "Mastrolilli [12]", fifo_competitive_ratio),
    BoundEntry("P, preemptive", "Ambühl et al.", "upper", "2 - 1/m", "Ambühl et al. [19]", lambda m: 2 - 1 / m),
    BoundEntry("P, preemptive", "any online", "lower", ">= 2 - 1/m", "Ambühl et al. [19]", lambda m: 2 - 1 / m),
    BoundEntry("P|Mi, non-preemptive", "any online", "lower", ">= Omega(m)", "Anand et al. [13]", general_lower_bound),
    BoundEntry("Q, non-preemptive", "Double-Fit", "upper", "13.5", "Bansal, Cloostermans [20]", lambda m: 13.5),
    BoundEntry("Q, non-preemptive", "Slow-Fit", "lower", ">= Omega(m)", "Bansal, Cloostermans [20]", None),
    BoundEntry("Q, non-preemptive", "Greedy", "lower", ">= Omega(log m)", "Bansal, Cloostermans [20]", None),
    BoundEntry("R, non-preemptive", "Bansal et al.", "upper", "O(log n) offline", "Bansal, Kulkarni [22]", None),
    BoundEntry("R, non-preemptive", "PTAS", "upper", "1+eps in n^O(m/eps)", "Bansal [21]", None),
    BoundEntry("R, non-preemptive", "FPTAS", "upper", "1+eps in O(nm(n^2/eps)^m)", "Mastrolilli [12]", None),
    BoundEntry("R, preemptive", "Legrand et al.", "upper", "optimal offline", "Legrand et al. [18]", None),
)
