"""Workload generation for the Section 7 experiments.

Combines the machine-popularity model (§7.1), an arrival process and a
replication strategy into scheduling instances:

1. draw ``n`` Poisson release times of rate :math:`\\lambda`;
2. draw each task's home machine from :math:`P(E_j)`;
3. extend the home to the replica set :math:`I_k(u)` of the chosen
   strategy — the task's processing set.

This is exactly the generator behind Figure 11 (unit tasks, ``m = 15``,
``k = 3``, 10 000 tasks).  Optional :mod:`~.dynamics` profiles make
steps 1 and 2 time-varying, and :meth:`WorkloadSpec.stream` hands out
the raw arrays for callers that resolve replica sets themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping, NamedTuple

import numpy as np

from ..core.task import Instance, Task
from ..psets.replication import ReplicationStrategy, get_strategy
from .arrivals import poisson_release_times
from .dynamics import (
    ConstantRate,
    PopularityProfile,
    RateProfile,
    StaticPopularity,
    arrival_times,
    parse_fields,
    parse_integer,
    parse_number,
    parse_text,
    profile_from_dict,
    profile_to_dict,
)
from .popularity import MachinePopularity, shuffled_case, uniform_case, worst_case

__all__ = [
    "WorkloadSpec",
    "WorkloadStream",
    "bake_instance",
    "generate_workload",
    "popularity_for_case",
    "sample_sizes",
]


class WorkloadStream(NamedTuple):
    """The raw arrival stream: parallel arrays of release times, home
    machines (1-based) and service times, in draw order."""

    releases: np.ndarray
    homes: np.ndarray
    sizes: np.ndarray


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of a Figure-11-style workload.

    ``size_dist`` extends the paper's unit tasks to variable request
    sizes ("requests vary in size", Section 1): ``"unit"``
    (deterministic ``proc``), ``"exp"`` (exponential with mean
    ``proc``), ``"pareto"`` (heavy tail, shape 2.1, mean ``proc``) or
    ``"uniform"`` (on ``[proc/2, 3 proc/2]``).

    ``rate_profile`` optionally replaces the constant rate ``lam`` with
    a time-varying :class:`~.dynamics.RateProfile` (diurnal swing,
    flash crowd); arrivals then follow the non-homogeneous Poisson
    process of that intensity.  ``lam`` is ignored when a profile is
    set.  Likewise ``popularity_profile`` replaces the popularity
    ``case``/``s`` with a :class:`~.dynamics.PopularityProfile`
    (drifting Zipf, moving hotspot), and each home is drawn from the
    weights at its release instant.
    """

    m: int
    n: int
    lam: float
    k: int = 3
    strategy: str = "overlapping"
    case: str = "uniform"
    s: float = 1.0
    proc: float = 1.0
    size_dist: str = "unit"
    rate_profile: RateProfile | None = None
    popularity_profile: PopularityProfile | None = None

    def __post_init__(self) -> None:
        if self.popularity_profile is not None and self.popularity_profile.m != self.m:
            raise ValueError(
                f"popularity has m={self.popularity_profile.m}, spec has m={self.m}"
            )

    @property
    def average_load(self) -> float:
        """*Time-averaged* cluster load :math:`\\bar\\lambda \\bar{p}/m`.

        With a constant rate this is the paper's :math:`\\lambda
        \\bar{p}/m`.  With a ``rate_profile`` the rate is averaged over
        the expected span of the ``n``-arrival stream,
        :math:`\\bar\\lambda = n / \\Lambda^{-1}(n)`, which integrates
        the profile rather than sampling it at any single instant.
        """
        rate = self.lam if self.rate_profile is None else self.rate_profile.mean_rate(self.n)
        return rate * self.proc / self.m

    def replication(self) -> ReplicationStrategy:
        return get_strategy(self.strategy, self.m, self.k)

    def stream(self, rng: np.random.Generator | int | None = None) -> WorkloadStream:
        """Draw the arrival stream: the popularity case's permutation
        (``shuffled`` only), then releases, homes and sizes — the draw
        order every pinned instance was generated in."""
        gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        pop = self.popularity_profile
        if pop is None:
            pop = StaticPopularity(popularity_for_case(self.m, self.case, self.s, gen))
        if self.rate_profile is not None:
            releases = arrival_times(self.rate_profile, self.n, gen)
        else:
            releases = poisson_release_times(self.lam, self.n, gen)
        homes = pop.sample_homes(releases, gen)
        sizes = sample_sizes(self.size_dist, self.n, self.proc, gen)
        return WorkloadStream(releases, homes, sizes)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able description (inverse of :meth:`from_dict`) —
        embedded in rebalance trace headers so a trace replays from its
        own bytes.  A constant rate is written as a ``constant``
        profile.  Only a spec with a ``popularity_profile`` has a dict
        form (a ``shuffled`` case draws its permutation from the
        stream's rng)."""
        if self.popularity_profile is None:
            raise ValueError("only a spec with a popularity_profile has a dict form")
        return {
            "m": self.m,
            "n": self.n,
            "rate": profile_to_dict(self.rate_profile or ConstantRate(self.lam)),
            "popularity": profile_to_dict(self.popularity_profile),
            "k": self.k,
            "strategy": self.strategy,
            "proc": self.proc,
            "size_dist": self.size_dist,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "WorkloadSpec":
        """Rebuild a spec from :meth:`to_dict` output.  A dict read
        from a trace header is outside input: an unknown, missing or
        malformed field raises :class:`ValueError` naming it.  A
        ``constant`` rate comes back as ``lam``; under any other rate
        profile ``lam`` is the profile's time-averaged rate."""
        f = parse_fields(data, "workload spec", _SPEC_PARSERS, ("m", "n", "rate", "popularity"))
        rate = f.pop("rate")
        f["popularity_profile"] = f.pop("popularity")
        if isinstance(rate, ConstantRate):
            return WorkloadSpec(lam=rate.lam, **f)
        return WorkloadSpec(lam=rate.mean_rate(f["n"]), rate_profile=rate, **f)


def _profile_of(kind: type):
    def parse(v: Any):
        profile = profile_from_dict(v)
        if isinstance(profile, kind):
            return profile
        raise ValueError(f"profile kind {v['kind']!r} is not a {kind.__name__}")

    return parse


_SPEC_PARSERS = {
    "m": parse_integer,
    "n": parse_integer,
    "rate": _profile_of(RateProfile),
    "popularity": _profile_of(PopularityProfile),
    "k": parse_integer,
    "strategy": parse_text,
    "proc": parse_number,
    "size_dist": parse_text,
}


_PARETO_SHAPE = 2.1


def sample_sizes(
    dist: str, n: int, mean: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n`` service times with the given distribution and mean."""
    if mean <= 0:
        raise ValueError("mean must be > 0")
    if dist == "unit":
        return np.full(n, mean)
    if dist == "exp":
        return rng.exponential(scale=mean, size=n)
    if dist == "pareto":
        # Lomax + 1 scaled so the mean equals `mean`:
        # E[pareto(a)] (numpy's Lomax) = 1/(a-1); add the location 1.
        raw = 1.0 + rng.pareto(_PARETO_SHAPE, size=n)
        return raw * (mean / (1.0 + 1.0 / (_PARETO_SHAPE - 1)))
    if dist == "uniform":
        return rng.uniform(mean / 2, 3 * mean / 2, size=n)
    raise ValueError(f"unknown size distribution {dist!r}")


def popularity_for_case(
    m: int, case: str, s: float, rng: np.random.Generator | int | None = None
) -> MachinePopularity:
    """Build the popularity distribution of one of the paper's cases
    (``uniform`` / ``worst`` / ``shuffled``)."""
    if case == "uniform":
        return uniform_case(m)
    if case == "worst":
        return worst_case(m, s)
    if case == "shuffled":
        return shuffled_case(m, s, rng)
    raise ValueError(f"unknown popularity case {case!r}")


def bake_instance(
    m: int,
    strategy: ReplicationStrategy,
    releases: np.ndarray,
    homes: np.ndarray,
    sizes: np.ndarray,
    keys: np.ndarray | None = None,
) -> Instance:
    """Bake parallel arrays into an :class:`Instance`: task ``i`` is
    released at ``releases[i]``, runs for ``sizes[i]`` on the replica
    set ``strategy.replicas(homes[i])`` and carries ``keys[i]`` (or no
    key).  Tasks with the same home share that home's one immutable
    frozenset; nothing may rely on the identity of a task's set."""
    replicas = strategy.replicas
    home_col = np.asarray(homes, dtype=np.int64).tolist()
    key_col = [None] * len(home_col) if keys is None else np.asarray(keys, dtype=np.int64).tolist()
    columns = zip(
        np.asarray(releases, dtype=float).tolist(),
        np.asarray(sizes, dtype=float).tolist(),
        home_col,
        key_col,
        strict=True,
    )
    tasks = tuple(Task(i, r, p, replicas(h), key) for i, (r, p, h, key) in enumerate(columns))
    return Instance(m=m, tasks=tasks)


def generate_workload(
    spec: WorkloadSpec,
    rng: np.random.Generator | int | None = None,
    popularity: MachinePopularity | None = None,
) -> Instance:
    """Generate an instance from a :class:`WorkloadSpec`.

    A pre-built ``popularity`` overrides the spec's case (useful to
    share one shuffled permutation across several load points, as the
    paper's Figure 11 facets do); it cannot be combined with a
    ``popularity_profile``.

    Tasks with the same home machine share that home's one immutable
    replica set; nothing may rely on the identity of a task's set.
    """
    if popularity is not None:
        if spec.popularity_profile is not None:
            raise ValueError("pass either popularity= or a spec popularity_profile, not both")
        spec = replace(spec, popularity_profile=StaticPopularity(popularity))
    return bake_instance(spec.m, spec.replication(), *spec.stream(rng))
