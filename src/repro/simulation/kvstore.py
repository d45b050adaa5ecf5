"""Key-level model of a replicated key-value store.

The paper abstracts popularity directly at the machine level
(:mod:`repro.simulation.popularity`).  This module keeps the full
key-granularity pipeline of the systems that motivated it (Dynamo,
Cassandra): keys are placed on a hash ring, each key has a home
machine, a replication strategy extends the home to a replica set, and
a request stream over keys becomes a task stream over machines.

Aggregating per-key request probabilities per home machine recovers
exactly the paper's machine popularity :math:`P(E_j)` — tested in
``tests/simulation/test_kvstore.py`` — so the figure harnesses may use
either level interchangeably.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..core.task import Instance, Task
from ..psets.replication import ReplicationStrategy, get_strategy
from .arrivals import poisson_release_times
from .dynamics import RateProfile, arrival_times

__all__ = ["HashRingPlacement", "KeyValueStore"]


class HashRingPlacement:
    """Consistent-hashing ring with virtual nodes, mapping a key id to
    its home machine (1-based).

    Each machine owns ``virtual_nodes`` points on a 64-bit ring; a key
    is homed on the machine owning the first point at or after the
    key's hash (clockwise successor) — the Dynamo placement rule.
    """

    def __init__(self, m: int, virtual_nodes: int = 64, salt: str = "ring") -> None:
        if m < 1 or virtual_nodes < 1:
            raise ValueError("m and virtual_nodes must be >= 1")
        self.m = m
        points: list[tuple[int, int]] = []
        for j in range(1, m + 1):
            for v in range(virtual_nodes):
                h = self._hash(f"{salt}:{j}:{v}")
                points.append((h, j))
        points.sort()
        self._hashes = np.array([p[0] for p in points], dtype=np.uint64)
        self._owners = np.array([p[1] for p in points], dtype=np.int64)

    @staticmethod
    def _hash(text: str) -> int:
        return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")

    def home(self, key: int) -> int:
        h = self._hash(f"key:{key}")
        idx = int(np.searchsorted(self._hashes, np.uint64(h), side="left"))
        if idx == len(self._hashes):
            idx = 0  # wrap around the ring
        return int(self._owners[idx])


@dataclass(frozen=True)
class KeyValueStore:
    """A cluster of ``m`` machines serving ``n_keys`` replicated keys.

    Parameters
    ----------
    m, n_keys:
        Cluster and keyspace sizes.
    placement:
        Key-to-home mapping (the hash ring).
    strategy:
        Replication strategy (``overlapping`` / ``disjoint`` / ``none``)
        already bound to ``(m, k)``.
    key_weights:
        Request probability of each key (defaults to uniform).  Zipf
        over *keys* plus hashing induces the paper's machine-level
        popularity bias.
    """

    m: int
    n_keys: int
    placement: HashRingPlacement
    strategy: ReplicationStrategy
    key_weights: np.ndarray

    @staticmethod
    def build(
        m: int,
        n_keys: int,
        k: int = 3,
        strategy: str | ReplicationStrategy = "overlapping",
        key_zipf_s: float = 0.0,
    ) -> "KeyValueStore":
        """Construct a store with Zipf key popularity of shape
        ``key_zipf_s`` (0 = uniform keys)."""
        strat = get_strategy(strategy, m, k)
        ranks = np.arange(1, n_keys + 1, dtype=float)
        w = ranks ** (-key_zipf_s)
        w /= w.sum()
        return KeyValueStore(
            m=m, n_keys=n_keys, placement=HashRingPlacement(m), strategy=strat, key_weights=w
        )

    def __post_init__(self) -> None:
        w = np.asarray(self.key_weights, dtype=float)
        if w.size != self.n_keys:
            raise ValueError("key_weights size must equal n_keys")
        if np.any(w < 0) or not np.isclose(w.sum(), 1.0):
            raise ValueError("key_weights must be a probability vector")
        object.__setattr__(self, "key_weights", w)

    # -- derived distributions ------------------------------------------------
    def homes(self) -> np.ndarray:
        """Home machine of every key (index = key id)."""
        return np.array([self.placement.home(key) for key in range(self.n_keys)], dtype=int)

    def machine_popularity(self) -> np.ndarray:
        """Induced machine-request probabilities :math:`P(E_j)` —
        per-key weights aggregated by home machine."""
        probs = np.zeros(self.m)
        homes = self.homes()
        np.add.at(probs, homes - 1, self.key_weights)
        return probs

    def replica_set(self, key: int) -> frozenset[int]:
        """Machines eligible to serve requests for ``key``."""
        return self.strategy.replicas(self.placement.home(key))

    # -- workload -----------------------------------------------------------------
    def request_stream(
        self,
        lam: float | RateProfile,
        n: int,
        rng: np.random.Generator | int | None = None,
        proc: float = 1.0,
    ) -> Instance:
        """Generate ``n`` requests as a scheduling instance.

        Releases follow a Poisson process of rate ``lam`` — either a
        constant float or a time-varying
        :class:`~.dynamics.RateProfile` (diurnal, flash crowd), in
        which case the stream is the non-homogeneous process of that
        intensity.  Each request draws a key from ``key_weights``; the
        task's processing set is the key's replica set.
        """
        gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        if isinstance(lam, RateProfile):
            releases = arrival_times(lam, n, gen)
        else:
            releases = poisson_release_times(lam, n, gen)
        keys = gen.choice(self.n_keys, size=n, p=self.key_weights)
        tasks = tuple(
            Task(
                tid=i,
                release=float(releases[i]),
                proc=proc,
                machines=self.replica_set(int(keys[i])),
                key=int(keys[i]),
            )
            for i in range(n)
        )
        return Instance(m=self.m, tasks=tasks)
