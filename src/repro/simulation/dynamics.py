"""Time-varying workloads: rate profiles and popularity dynamics.

The paper's Section 7 experiments fix a Zipf popularity and a constant
Poisson rate.  Real stores see neither: arrival rates breathe with the
day, flash crowds spike them, and the *location* of the hot keys moves
(a product launch shifts traffic from one shard's keys to another's).
This module adds those axes; the workloads they drive are still baked
into release-ordered :class:`~repro.core.task.Instance` streams, so the
Simulator, campaign units and the serve driver consume them unchanged.

Two orthogonal dials:

* a :class:`RateProfile` ``lambda(t)`` shaping *when* work arrives —
  :class:`ConstantRate`, :class:`DiurnalRate` (sinusoidal day/night
  swing), :class:`FlashCrowd` (a plateau burst on a base rate).
  Arrivals are drawn by **inversion**: a unit-rate Poisson process
  mapped through :math:`\\Lambda^{-1}`, so exactly ``n`` arrivals come
  out, monotone in time, from exactly ``n`` seeded exponential draws —
  identical streams for identical seeds on any process or platform.
* a :class:`PopularityProfile` ``P(E_j; t)`` shaping *where* it lands —
  :class:`StaticPopularity`, :class:`ZipfDrift` (the Zipf exponent
  ramps between two values), :class:`HotspotShift` (the weight vector
  rotates around the ring at shift instants — hot data "moves").

Every profile degenerates to its static counterpart when its amplitude
is zero (``DiurnalRate(amplitude=0)``, ``ZipfDrift(s1 == s0)``,
``HotspotShift(shifts=())``), and the degenerate paths reuse the exact
static sampling calls, so the reduction is *bit-for-bit*, not just in
distribution — property-tested in ``tests/simulation/test_dynamics.py``.

:class:`~.workload.WorkloadSpec` takes one profile of each kind
(``rate_profile``, ``popularity_profile``) beside its static
``lam``/``case``.  This module holds only the profiles, the arrival
sampler and their dict form, which rebalance trace headers embed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from .arrivals import poisson_release_times
from .popularity import MachinePopularity, zipf_weights

__all__ = [
    "ConstantRate",
    "DiurnalRate",
    "FlashCrowd",
    "HotspotShift",
    "PopularityProfile",
    "RateProfile",
    "StaticPopularity",
    "ZipfDrift",
    "arrival_times",
    "profile_from_dict",
    "profile_to_dict",
]


# ---------------------------------------------------------------------------
# Rate profiles
# ---------------------------------------------------------------------------


class RateProfile:
    """An arrival-rate curve :math:`\\lambda(t) \\ge 0`.

    Subclasses provide :meth:`rate` and the cumulative
    :meth:`cumulative` :math:`\\Lambda(t) = \\int_0^t \\lambda`;
    inversion-based sampling and time-averaging are derived here.
    """

    def rate(self, t: float) -> float:
        raise NotImplementedError

    def cumulative(self, t: float) -> float:
        """:math:`\\Lambda(t)`, the expected arrivals in ``[0, t]``."""
        raise NotImplementedError

    @property
    def is_constant(self) -> bool:
        return False

    def inverse_cumulative(self, u: float) -> float:
        """:math:`\\Lambda^{-1}(u)`: the time by which ``u`` arrivals
        are expected.  Generic bisection; subclasses override with the
        closed form where one exists."""
        if u <= 0:
            return 0.0
        hi = 1.0
        while self.cumulative(hi) < u:
            hi *= 2.0
            if hi > 1e18:  # pragma: no cover - pathological profile
                raise ValueError(f"rate profile never accumulates {u} arrivals")
        lo = 0.0
        for _ in range(80):
            mid = (lo + hi) / 2
            if self.cumulative(mid) < u:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    def duration_for(self, n: int) -> float:
        """Expected span of an ``n``-arrival stream,
        :math:`\\Lambda^{-1}(n)`."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return self.inverse_cumulative(float(n))

    def mean_rate(self, n: int) -> float:
        """Time-averaged rate over the expected ``n``-arrival window:
        :math:`n / \\Lambda^{-1}(n)`."""
        return float(n) / self.duration_for(n)


@dataclass(frozen=True)
class ConstantRate(RateProfile):
    """The homogeneous Poisson process of the paper: ``lambda(t) = lam``."""

    lam: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.lam) or self.lam <= 0:
            raise ValueError("arrival rate must be finite and > 0")

    def rate(self, t: float) -> float:
        return self.lam

    def cumulative(self, t: float) -> float:
        return self.lam * t

    def inverse_cumulative(self, u: float) -> float:
        return max(0.0, u / self.lam)

    @property
    def is_constant(self) -> bool:
        return True


@dataclass(frozen=True)
class DiurnalRate(RateProfile):
    """Sinusoidal day/night swing around a base rate:

    .. math::

        \\lambda(t) = \\text{base} \\bigl(1 + a \\sin(2\\pi (t +
        \\text{phase}) / \\text{period})\\bigr), \\qquad 0 \\le a \\le 1.

    ``amplitude = 0`` degenerates to :class:`ConstantRate` exactly.
    """

    base: float
    amplitude: float
    period: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.base) or self.base <= 0:
            raise ValueError("base rate must be finite and > 0")
        if not (0.0 <= self.amplitude <= 1.0):
            raise ValueError("amplitude must lie in [0, 1]")
        if not math.isfinite(self.period) or self.period <= 0:
            raise ValueError("period must be finite and > 0")

    def rate(self, t: float) -> float:
        return self.base * (1.0 + self.amplitude * math.sin(2 * math.pi * (t + self.phase) / self.period))

    def cumulative(self, t: float) -> float:
        w = 2 * math.pi / self.period
        # int_0^t base*(1 + a sin(w (x+phase))) dx
        return self.base * (
            t + self.amplitude / w * (math.cos(w * self.phase) - math.cos(w * (t + self.phase)))
        )

    @property
    def is_constant(self) -> bool:
        return self.amplitude == 0.0


@dataclass(frozen=True)
class FlashCrowd(RateProfile):
    """A plateau burst: ``base`` everywhere except ``peak`` over the
    half-open window ``[start, start + duration)``."""

    base: float
    peak: float
    start: float
    duration: float

    def __post_init__(self) -> None:
        for name in ("base", "peak", "start", "duration"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
        if self.base <= 0 or self.peak <= 0:
            raise ValueError("base and peak rates must be > 0")
        if self.start < 0 or self.duration <= 0:
            raise ValueError("need start >= 0 and duration > 0")

    def rate(self, t: float) -> float:
        return self.peak if self.start <= t < self.start + self.duration else self.base

    def cumulative(self, t: float) -> float:
        burst = min(max(t - self.start, 0.0), self.duration)
        return self.base * (t - burst) + self.peak * burst

    def inverse_cumulative(self, u: float) -> float:
        if u <= 0:
            return 0.0
        at_start = self.base * self.start
        if u <= at_start:
            return u / self.base
        at_end = at_start + self.peak * self.duration
        if u <= at_end:
            return self.start + (u - at_start) / self.peak
        return self.start + self.duration + (u - at_end) / self.base

    @property
    def is_constant(self) -> bool:
        return self.peak == self.base


def arrival_times(
    profile: RateProfile, n: int, rng: np.random.Generator | int | None = None
) -> np.ndarray:
    """``n`` release times of the non-homogeneous Poisson process with
    intensity ``profile``.

    Inversion sampling: unit-rate arrivals (cumulative sums of
    ``Exponential(1)`` draws) mapped through :math:`\\Lambda^{-1}`.
    A constant profile takes the static fast path — the *same* numpy
    call sequence as :func:`~.arrivals.poisson_release_times` — so the
    degenerate stream is bit-identical to the paper's generator.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    if profile.is_constant:
        return poisson_release_times(profile.rate(0.0), n, gen)
    unit = np.cumsum(gen.exponential(scale=1.0, size=n))
    return np.array([profile.inverse_cumulative(float(u)) for u in unit])


# ---------------------------------------------------------------------------
# Popularity profiles
# ---------------------------------------------------------------------------


class PopularityProfile:
    """A time-varying machine-popularity vector :math:`P(E_j; t)`."""

    m: int

    def weights(self, t: float) -> np.ndarray:
        """Probability vector over machines ``1..m`` at time ``t``."""
        raise NotImplementedError

    @property
    def is_static(self) -> bool:
        return False

    def sample_homes(self, releases: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Home machine (1-based) of each arrival, drawn from the
        weights at its release instant.  Static profiles take the bulk
        static path (one ``choice`` call — bit-identical to
        :meth:`MachinePopularity.sample_homes`)."""
        machines = np.arange(1, self.m + 1)
        if self.is_static:
            return rng.choice(machines, size=releases.size, p=self.weights(0.0))
        return np.array(
            [int(rng.choice(machines, p=self.weights(float(t)))) for t in releases],
            dtype=np.int64,
        )


@dataclass(frozen=True)
class StaticPopularity(PopularityProfile):
    """A fixed :class:`MachinePopularity` lifted to the profile API."""

    popularity: MachinePopularity

    @property
    def m(self) -> int:
        return self.popularity.m

    def weights(self, t: float) -> np.ndarray:
        return self.popularity.weights

    @property
    def is_static(self) -> bool:
        return True


@dataclass(frozen=True)
class ZipfDrift(PopularityProfile):
    """The Zipf exponent ramps linearly from ``s0`` to ``s1`` over
    ``[t0, t1]`` (clamped outside) — popularity bias sharpening or
    flattening over time.  ``order`` optionally permutes the ranks
    (the Shuffled case); identity order is the Worst case."""

    m: int
    s0: float
    s1: float
    t0: float
    t1: float
    order: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.s0 < 0 or self.s1 < 0:
            raise ValueError("Zipf shapes must be >= 0")
        if not (self.t0 <= self.t1):
            raise ValueError("need t0 <= t1")
        if self.order is not None and sorted(self.order) != list(range(self.m)):
            raise ValueError("order must be a permutation of 0..m-1")

    def exponent(self, t: float) -> float:
        if self.s0 == self.s1 or t <= self.t0:
            return self.s0
        if t >= self.t1:
            return self.s1
        frac = (t - self.t0) / (self.t1 - self.t0)
        return self.s0 + frac * (self.s1 - self.s0)

    def weights(self, t: float) -> np.ndarray:
        w = zipf_weights(self.m, self.exponent(t))
        if self.order is not None:
            w = w[np.asarray(self.order)]
        return w

    @property
    def is_static(self) -> bool:
        return self.s0 == self.s1


@dataclass(frozen=True)
class HotspotShift(PopularityProfile):
    """A Zipf popularity whose hot machines *move*: at each shift
    instant the weight vector rotates by ``rotation`` positions around
    the ring (cumulatively), modelling hot keys migrating from one
    region of the cluster to another.  ``shifts=()`` degenerates to the
    static Zipf."""

    m: int
    s: float
    shifts: tuple[tuple[float, int], ...] = ()
    order: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.s < 0:
            raise ValueError("Zipf shape s must be >= 0")
        times = [t for t, _ in self.shifts]
        if any(t < 0 for t in times) or times != sorted(times):
            raise ValueError("shift times must be >= 0 and non-decreasing")
        if self.order is not None and sorted(self.order) != list(range(self.m)):
            raise ValueError("order must be a permutation of 0..m-1")

    def rotation(self, t: float) -> int:
        return sum(rot for at, rot in self.shifts if at <= t) % self.m

    def weights(self, t: float) -> np.ndarray:
        w = zipf_weights(self.m, self.s)
        if self.order is not None:
            w = w[np.asarray(self.order)]
        return np.roll(w, self.rotation(t))

    @property
    def is_static(self) -> bool:
        return all(rot % self.m == 0 for _, rot in self.shifts)

    def sample_homes(self, releases: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        # Weights are piecewise-constant between shifts: sample each
        # segment in one bulk draw instead of one draw per task.
        if self.is_static:
            return super().sample_homes(releases, rng)
        machines = np.arange(1, self.m + 1)
        out = np.empty(releases.size, dtype=np.int64)
        bounds = [at for at, _ in self.shifts]
        starts = np.searchsorted(releases, bounds, side="left")
        segment_edges = [0, *starts.tolist(), releases.size]
        seg_times = [0.0, *bounds]
        for (lo, hi), t in zip(zip(segment_edges, segment_edges[1:]), seg_times):
            if hi > lo:
                out[lo:hi] = rng.choice(machines, size=hi - lo, p=self.weights(t))
        return out


# ---------------------------------------------------------------------------
# Serialisation (rebalance traces embed their workload for replay)
# ---------------------------------------------------------------------------

def parse_fields(
    data: Any, what: str, parsers: Mapping[str, Callable[[Any], Any]], required: tuple[str, ...]
) -> dict[str, Any]:
    """Parse one serialised record: ``data`` must be a mapping whose
    keys all have a parser in ``parsers``, with every ``required`` key
    present; each value goes through its field's parser.  Any fault
    raises :class:`ValueError` naming ``what`` and the field."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{what}: expected an object, got {data!r}")
    unknown = sorted(set(data) - set(parsers))
    if unknown:
        raise ValueError(f"{what}: unknown field {unknown[0]!r}")
    missing = [name for name in required if name not in data]
    if missing:
        raise ValueError(f"{what}: missing field {missing[0]!r}")
    out = {}
    for name, value in data.items():
        try:
            out[name] = parsers[name](value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{what}: malformed field {name!r}: {exc}") from None
    return out


def _typed(kind: type, what: str, convert: Callable[[Any], Any]) -> Callable[[Any], Any]:
    def parse(v: Any) -> Any:
        if isinstance(v, bool) or not isinstance(v, kind):
            raise TypeError(f"expected {what}, got {v!r}")
        return convert(v)

    return parse


parse_integer = _typed(numbers.Integral, "an integer", int)
parse_number = _typed(numbers.Real, "a number", float)
parse_text = _typed(str, "a string", str)


def _static(weights: list[float], m: int | None = None, case: str = "custom", s: float = 0.0):
    if m is not None and m != len(weights):
        raise ValueError(f"static profile: m={m} but {len(weights)} weights")
    return StaticPopularity(MachinePopularity(weights=np.asarray(weights), case=case, s=s))


#: kind -> (constructor, required fields, optional fields)
_PROFILE_SCHEMAS: dict[str, tuple[Callable[..., Any], tuple[str, ...], tuple[str, ...]]] = {
    "constant": (ConstantRate, ("lam",), ()),
    "diurnal": (DiurnalRate, ("base", "amplitude", "period"), ("phase",)),
    "flash": (FlashCrowd, ("base", "peak", "start", "duration"), ()),
    "static": (_static, ("weights",), ("m", "case", "s")),
    "zipf-drift": (ZipfDrift, ("m", "s0", "s1", "t0", "t1"), ("order",)),
    "hotspot-shift": (HotspotShift, ("m", "s"), ("shifts", "order")),
}
#: parsers of the profile fields that are not plain numbers
_PROFILE_PARSERS: dict[str, Callable[[Any], Any]] = {
    "m": parse_integer,
    "case": parse_text,
    "weights": lambda v: [parse_number(w) for w in v],
    "order": lambda v: None if v is None else tuple(parse_integer(j) for j in v),
    "shifts": lambda v: tuple((parse_number(t), parse_integer(r)) for t, r in v),
}


def _plain(v: Any) -> Any:
    return [_plain(x) for x in v] if isinstance(v, tuple) else v


def profile_to_dict(profile: RateProfile | PopularityProfile) -> dict[str, Any]:
    """A JSON-able description of a profile (inverse of
    :func:`profile_from_dict`)."""
    if isinstance(profile, StaticPopularity):
        pop = profile.popularity
        weights = [float(w) for w in pop.weights]
        return {"kind": "static", "m": pop.m, "weights": weights, "case": pop.case, "s": pop.s}
    for kind, (make, required, optional) in _PROFILE_SCHEMAS.items():
        if type(profile) is make:
            fields = (*required, *optional)
            return {"kind": kind, **{name: _plain(getattr(profile, name)) for name in fields}}
    raise TypeError(f"cannot serialise profile of type {type(profile).__name__}")


def profile_from_dict(data: Mapping[str, Any]) -> RateProfile | PopularityProfile:
    """Rebuild a profile serialised by :func:`profile_to_dict`.  An
    unknown kind or an unknown, missing or malformed field raises
    :class:`ValueError` naming it."""
    if not isinstance(data, Mapping):
        raise ValueError(f"profile: expected an object, got {data!r}")
    kind = data.get("kind")
    schema = _PROFILE_SCHEMAS.get(kind) if isinstance(kind, str) else None
    if schema is None:
        raise ValueError(f"unknown profile kind {kind!r}")
    make, required, optional = schema
    parsers = {name: _PROFILE_PARSERS.get(name, parse_number) for name in (*required, *optional)}
    fields = {k: v for k, v in data.items() if k != "kind"}
    return make(**parse_fields(fields, f"profile {kind!r}", parsers, required))
