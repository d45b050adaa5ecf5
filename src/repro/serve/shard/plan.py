"""Shard plans: partitioning the fleet into dispatcher shards.

A :class:`ShardPlan` cuts the machine ring ``1..m`` into ``N``
contiguous intervals, one per dispatcher shard.  The paper's Theorem 6
(composition over disjoint processing sets) is what makes this sound:
if every processing set lies entirely inside one shard's interval, the
shards compose with **zero cross-talk** — per-shard EFT takes exactly
the decisions fleet-wide EFT would, and the ``(3 - 2/k)`` bound of
Corollary 1 survives sharding unchanged.  :meth:`ShardPlan.aligned`
builds such plans for disjoint interval replication (shard boundaries
on replication-group boundaries); :meth:`ShardPlan.for_family` finds
one for an arbitrary recorded workload, or refuses.

Overlapping ring replication (Figure 9) admits no cross-talk-free cut:
every shard boundary is straddled by exactly ``k - 1`` of the ``m``
ring intervals :math:`I_k(u)`.  Those straddling sets form the
**handoff set** of the plan — enumerable in advance
(:meth:`handoff_sets`), bounded by ``N * (k - 1)`` — and the router
handles them with interval-aware routing: the shard owning the
interval's *start* machine owns the task, and only a failure that
empties the owner-side fragment triggers a cross-shard handoff.

Routing is a pure function of the processing set (:meth:`route`), so a
fleet of shards places requests deterministically from release stamps
alone, exactly like the single dispatcher it replaces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from ...core.task import Instance, Task
from ...psets.sets import is_contiguous

__all__ = ["Route", "ShardPlan", "partition_instance", "plan_for_instance"]


@dataclass(frozen=True)
class Route:
    """Routing of one processing set through a plan.

    ``fragments`` maps each shard that owns part of the set to its
    fragment (in shard order); ``owner`` is the shard the request is
    dispatched to while any of its fragment machines is alive.  A route
    with a single fragment equal to the whole set is shard-local
    (``is_local``); anything else is a cross-shard (handoff-capable)
    route.
    """

    owner: int
    fragments: tuple[tuple[int, frozenset[int]], ...]

    @property
    def is_local(self) -> bool:
        return len(self.fragments) == 1

    @property
    def owner_fragment(self) -> frozenset[int]:
        return dict(self.fragments)[self.owner]

    def fragment(self, shard: int) -> frozenset[int]:
        """The set's machines owned by ``shard`` (empty if none)."""
        return dict(self.fragments).get(shard, frozenset())


def _ring_start(s: frozenset[int], m: int) -> int | None:
    """Start machine of a (possibly wrapped) ring interval, or ``None``
    if ``s`` is not a proper ring interval (e.g. the full ring)."""
    if is_contiguous(s):
        return min(s)
    starts = [j for j in s if ((j - 2) % m + 1) not in s]
    return starts[0] if len(starts) == 1 else None


@dataclass(frozen=True)
class ShardPlan:
    """A partition of machines ``1..m`` into contiguous shard intervals.

    ``intervals`` are 1-based inclusive ``(lo, hi)`` pairs, consecutive
    and covering ``1..m`` exactly; shard ids are their 0-based indices.
    """

    m: int
    intervals: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("need at least one machine")
        if not self.intervals:
            raise ValueError("plan needs at least one shard")
        object.__setattr__(self, "intervals", tuple((int(a), int(b)) for a, b in self.intervals))
        expected_lo = 1
        for lo, hi in self.intervals:
            if lo != expected_lo or hi < lo:
                raise ValueError(
                    f"shard intervals must be consecutive and cover 1..{self.m}: "
                    f"{list(self.intervals)}"
                )
            expected_lo = hi + 1
        if expected_lo != self.m + 1:
            raise ValueError(f"shard intervals do not cover 1..{self.m}: {list(self.intervals)}")

    # -- constructors --------------------------------------------------------
    @staticmethod
    def single(m: int) -> "ShardPlan":
        """The degenerate one-shard plan (the unsharded tier)."""
        return ShardPlan(m=m, intervals=((1, m),))

    @staticmethod
    def cut(m: int, n_shards: int, align_k: int | None = None) -> "ShardPlan":
        """The plan ``--shards N [--align-k K]`` names: :meth:`aligned`
        to disjoint ``align_k``-groups when given, else :meth:`even`."""
        if align_k is not None:
            return ShardPlan.aligned(m, align_k, n_shards)
        return ShardPlan.even(m, n_shards)

    @staticmethod
    def even(m: int, n_shards: int) -> "ShardPlan":
        """``n_shards`` near-equal contiguous intervals (interval cover
        for overlapping ring replication — straddling sets become the
        handoff set)."""
        if not (1 <= n_shards <= m):
            raise ValueError(f"n_shards {n_shards} outside 1..{m}")
        base, extra = divmod(m, n_shards)
        intervals, lo = [], 1
        for s in range(n_shards):
            hi = lo + base - 1 + (1 if s < extra else 0)
            intervals.append((lo, hi))
            lo = hi + 1
        return ShardPlan(m=m, intervals=tuple(intervals))

    @staticmethod
    def aligned(m: int, k: int, n_shards: int) -> "ShardPlan":
        """An exact disjoint partition for ``DisjointIntervals(m, k)``:
        shard boundaries fall on replication-group boundaries, so no
        replica set straddles a shard (Theorem 6 composition, zero
        cross-talk).  Requires at least as many groups as shards."""
        if not (1 <= k <= m):
            raise ValueError(f"k {k} outside 1..{m}")
        n_groups = -(-m // k)
        if not (1 <= n_shards <= n_groups):
            raise ValueError(
                f"n_shards {n_shards} outside 1..{n_groups} "
                f"(m={m}, k={k} gives {n_groups} disjoint groups)"
            )
        base, extra = divmod(n_groups, n_shards)
        intervals, group_lo = [], 1
        for s in range(n_shards):
            take = base + (1 if s < extra else 0)
            hi_group = group_lo + take - 1
            lo = (group_lo - 1) * k + 1
            hi = min(m, hi_group * k)
            intervals.append((lo, hi))
            group_lo = hi_group + 1
        return ShardPlan(m=m, intervals=tuple(intervals))

    @staticmethod
    def for_family(
        family: Iterable[Iterable[int]], m: int, n_shards: int
    ) -> "ShardPlan":
        """A plan with ``n_shards`` shards that no set of ``family``
        straddles, boundaries as evenly spread as the family allows.

        Raises :class:`ValueError` when the family pins too few legal
        cut points (e.g. overlapping ring replication, which admits
        only the trivial one-shard plan).
        """
        sets = [frozenset(s) for s in family]
        if any(not s or min(s) < 1 or max(s) > m for s in sets):
            raise ValueError("family sets must be non-empty within 1..m")
        if n_shards > 1 and any(1 in s and m in s for s in sets):
            # A set holding both ends of the linear layout straddles
            # the shard-0 / shard-(N-1) split whatever the cuts.
            raise ValueError(
                "family wraps the ring seam (a set holds both machine 1 "
                f"and machine {m}); no cross-talk-free multi-shard plan exists"
            )
        # A cut after machine p is legal iff no set spans it: a set
        # covering lo..hi (gaps included — min and max must stay
        # together) forbids every cut in lo..hi-1.
        legal = set(range(1, m))
        for s in sets:
            legal -= set(range(min(s), max(s)))
        if n_shards - 1 > len(legal):
            raise ValueError(
                f"family admits only {len(legal) + 1} shard(s), wanted {n_shards}"
            )
        if n_shards == 1:
            return ShardPlan.single(m)
        # Pick the legal cut nearest each ideal even boundary, left to
        # right, never reusing a cut.
        cuts: list[int] = []
        available = sorted(legal)
        for i in range(1, n_shards):
            ideal = round(i * m / n_shards)
            candidates = [p for p in available if p > (cuts[-1] if cuts else 0)]
            if len(candidates) < n_shards - i:
                raise ValueError(f"family admits no even {n_shards}-shard plan")
            best = min(candidates[: len(candidates) - (n_shards - i - 1)],
                       key=lambda p: (abs(p - ideal), p))
            cuts.append(best)
        bounds = [0] + cuts + [m]
        return ShardPlan(
            m=m, intervals=tuple((a + 1, b) for a, b in zip(bounds, bounds[1:]))
        )

    # -- lookup --------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.intervals)

    def shard_of(self, machine: int) -> int:
        """0-based shard id owning ``machine``."""
        if not (1 <= machine <= self.m):
            raise ValueError(f"machine {machine} outside 1..{self.m}")
        for sid, (lo, hi) in enumerate(self.intervals):
            if lo <= machine <= hi:
                return sid
        raise AssertionError("unreachable: intervals cover 1..m")

    def machines(self, shard: int) -> frozenset[int]:
        """The machines shard ``shard`` owns."""
        lo, hi = self.intervals[shard]
        return frozenset(range(lo, hi + 1))

    # -- routing -------------------------------------------------------------
    def route(self, machine_set: Iterable[int]) -> Route:
        """Route a processing set: fragments per shard, plus the owner.

        The owner is the shard holding the set's ring-interval *start*
        machine (interval-aware routing — the home machine of a
        Dynamo-style replica chain); for sets that are not ring
        intervals (including the full ring), the shard with the largest
        fragment owns, smallest shard id on ties.  Pure function of the
        set, so placements stay reproducible.
        """
        s = frozenset(machine_set)
        if not s:
            raise ValueError("cannot route an empty machine set")
        if min(s) < 1 or max(s) > self.m:
            raise ValueError(f"machine set {sorted(s)} outside 1..{self.m}")
        fragments = tuple(
            (sid, frag)
            for sid in range(self.n_shards)
            if (frag := s & self.machines(sid))
        )
        if len(fragments) == 1:
            return Route(owner=fragments[0][0], fragments=fragments)
        start = _ring_start(s, self.m)
        if start is not None:
            owner = self.shard_of(start)
        else:
            owner = max(fragments, key=lambda f: (len(f[1]), -f[0]))[0]
        return Route(owner=owner, fragments=fragments)

    def is_disjoint_for(self, family: Iterable[Iterable[int]]) -> bool:
        """Whether every set of ``family`` is local to one shard (the
        Theorem 6 zero-cross-talk condition)."""
        return all(self.route(s).is_local for s in family)

    def handoff_sets(self, family: Iterable[Iterable[int]]) -> list[frozenset[int]]:
        """The distinct sets of ``family`` that straddle a shard
        boundary — the plan's bounded cross-shard handoff set (for ring
        replication with factor ``k``: at most ``n_shards * (k - 1)``
        sets)."""
        out: list[frozenset[int]] = []
        seen: set[frozenset[int]] = set()
        for s in family:
            fs = frozenset(s)
            if fs not in seen and not self.route(fs).is_local:
                seen.add(fs)
                out.append(fs)
        return sorted(out, key=lambda s: sorted(s))

    # -- serialisation -------------------------------------------------------
    def to_json(self) -> str:
        """Serialise (round-trips via :meth:`from_json`); also the
        payload of the wire ``route`` op, so smart clients can route
        submits shard-side without a round trip per request."""
        return json.dumps(
            {"m": self.m, "intervals": [list(iv) for iv in self.intervals]},
            separators=(",", ":"),
        )

    @staticmethod
    def from_json(payload: str) -> "ShardPlan":
        data = json.loads(payload)
        return ShardPlan(
            m=int(data["m"]),
            intervals=tuple((int(a), int(b)) for a, b in data["intervals"]),
        )

    def describe(self) -> str:
        """Human-readable one-plan summary (the ``repro route`` verb)."""
        lines = [f"shard plan: m={self.m}, {self.n_shards} shard(s)"]
        for sid, (lo, hi) in enumerate(self.intervals):
            lines.append(f"  shard {sid}: machines {lo}..{hi} ({hi - lo + 1})")
        return "\n".join(lines)


def plan_for_instance(instance: Instance, n_shards: int) -> ShardPlan:
    """The plan a sharded run of ``instance`` should use: a disjoint
    (zero cross-talk) cut of its processing-set family when one exists,
    else an even interval cover (straddling sets routed by fragment)."""
    if n_shards == 1:
        return ShardPlan.single(instance.m)
    try:
        return ShardPlan.for_family(instance.processing_sets(), instance.m, n_shards)
    except ValueError:
        return ShardPlan.even(instance.m, n_shards)


def partition_instance(instance: Instance, plan: ShardPlan) -> dict[int, Instance]:
    """Client-side routing: split ``instance`` into per-shard
    substreams, restricting straddling sets to their owner fragment
    (exactly what the router does server-side).  Shards with no tasks
    are omitted."""
    per: dict[int, list[Task]] = {}
    for task in instance:
        route = plan.route(task.eligible(instance.m))
        sub = task if route.is_local else task.restricted_to(route.owner_fragment)
        per.setdefault(route.owner, []).append(sub)
    return {
        sid: Instance(m=instance.m, tasks=tuple(tasks)) for sid, tasks in sorted(per.items())
    }
