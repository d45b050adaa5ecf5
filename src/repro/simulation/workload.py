"""Workload generation for the Section 7 experiments.

Combines the machine-popularity model (§7.1), an arrival process and a
replication strategy into scheduling instances:

1. draw ``n`` Poisson release times of rate :math:`\\lambda`;
2. draw each task's home machine from :math:`P(E_j)`;
3. extend the home to the replica set :math:`I_k(u)` of the chosen
   strategy — the task's processing set.

This is exactly the generator behind Figure 11 (unit tasks, ``m = 15``,
``k = 3``, 10 000 tasks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.task import Instance, Task
from ..psets.replication import ReplicationStrategy, get_strategy
from .arrivals import poisson_release_times
from .dynamics import RateProfile, arrival_times, bake_instance
from .popularity import MachinePopularity, shuffled_case, uniform_case, worst_case

__all__ = [
    "WorkloadSpec",
    "generate_workload",
    "inject_outage",
    "popularity_for_case",
    "sample_sizes",
]


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
    set.
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

    @property
    def average_load(self) -> float:
        """*Time-averaged* cluster load :math:`\\bar\\lambda \\bar{p}/m`.

        With a constant rate this is the paper's :math:`\\lambda
        \\bar{p}/m`.  With a ``rate_profile`` the rate is averaged over
        the expected span of the ``n``-arrival stream,
        :math:`\\bar\\lambda = n / \\Lambda^{-1}(n)`, which integrates
        the profile rather than sampling it at any single instant.
        """
        if self.rate_profile is not None:
            return self.rate_profile.mean_rate(self.n) * self.proc / self.m
        return self.lam * self.proc / self.m


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


def generate_workload(
    spec: WorkloadSpec,
    rng: np.random.Generator | int | None = None,
    popularity: MachinePopularity | None = None,
) -> Instance:
    """Generate an instance from a :class:`WorkloadSpec`.

    A pre-built ``popularity`` overrides the spec's case (useful to
    share one shuffled permutation across several load points, as the
    paper's Figure 11 facets do).

    Tasks with the same home machine share that home's one immutable
    replica set; nothing may rely on the identity of a task's set.
    """
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    pop = popularity if popularity is not None else popularity_for_case(spec.m, spec.case, spec.s, gen)
    if pop.m != spec.m:
        raise ValueError(f"popularity has m={pop.m}, spec has m={spec.m}")
    strat: ReplicationStrategy = get_strategy(spec.strategy, spec.m, spec.k)
    if spec.rate_profile is not None:
        releases = arrival_times(spec.rate_profile, spec.n, gen)
    else:
        releases = poisson_release_times(spec.lam, spec.n, gen)
    homes = pop.sample_homes(spec.n, gen)
    sizes = sample_sizes(spec.size_dist, spec.n, spec.proc, gen)
    return bake_instance(spec.m, strat, releases, sizes, homes)


def inject_outage(
    instance: Instance, machine: int, start: float, duration: float
) -> Instance:
    """Failure injection: model a machine outage as a maintenance task.

    A task of length ``duration`` pinned to ``machine`` and released at
    ``start`` occupies it for the outage window (immediate-dispatch
    schedulers place it at once, and if the machine is busy the outage
    begins when the current work drains — the behaviour of a drain-
    then-reboot maintenance operation).  Returns a new instance with
    the outage task appended (its tid continues the existing range).
    """
    if not (1 <= machine <= instance.m):
        raise ValueError(f"machine {machine} outside 1..{instance.m}")
    if duration <= 0 or start < 0:
        raise ValueError("need start >= 0 and duration > 0")
    next_tid = max((t.tid for t in instance), default=-1) + 1
    outage = Task(
        tid=next_tid, release=float(start), proc=float(duration), machines=frozenset({machine})
    )
    return Instance(m=instance.m, tasks=instance.tasks + (outage,))
