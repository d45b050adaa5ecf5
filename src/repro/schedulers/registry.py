"""The policy registry: one name → one scheduler factory.

The registry is the zoo's front door: every subsystem that accepts a
``--scheduler NAME`` (serve, bench-serve, rebalance, replay,
compare-schedulers, campaign units) resolves it here, so a policy
registered once is simulatable, servable, faultable, shardable, and
benchmarkable with no further wiring.

Names are canonicalised (case-insensitive, ``_`` → ``-``), and the
recorded display spellings (``EFT-Min``, ``SRPT-PS``, …) round-trip:
``get_scheduler(trace.scheduler_name, m)`` works on any zoo trace.

Built-in policies::

    eft-min | eft-max | eft-rand    EFT (Algorithm 2), paper tie-breaks
    least-work | round-robin | random   baselines
    lor | c3                        non-clairvoyant replica selection
    srpt-ps                         preemptive SRPT, processing sets
    nc-setup                        non-clairvoyant + setup times
    speed-eft                       speed-aware EFT, related machines

Factories take ``(m, seed)``; seed is ignored by deterministic
policies.  :func:`register` checks the policy class against the
:mod:`~repro.schedulers.contract` at registration time.
"""

from __future__ import annotations

from typing import Callable

from ..core.baselines import LeastWorkAssign, RandomAssign, RoundRobinAssign
from ..core.dispatch import ImmediateDispatchScheduler
from ..core.eft import EFT
from ..core.nonclairvoyant import C3Like, LeastOutstanding
from ..related.model import SpeedCluster
from ..related.schedulers import GreedyRelated
from .contract import check_policy
from .ncsetup import NCSetup
from .srpt import SRPTPS

__all__ = ["register", "get_scheduler", "list_schedulers", "canonical_name"]

#: name -> (factory, policy class, one-line summary)
_REGISTRY: dict[
    str, tuple[Callable[[int, int | None], ImmediateDispatchScheduler], type, str]
] = {}

#: display-name spellings recorded in trace headers -> registry key
_ALIASES: dict[str, str] = {}


def canonical_name(name: str) -> str:
    """Canonical registry key for ``name`` (case/underscore-insensitive,
    display spellings accepted)."""
    key = name.strip().lower().replace("_", "-")
    return _ALIASES.get(key, key)


def register(
    name: str,
    factory: Callable[[int, int | None], ImmediateDispatchScheduler],
    *,
    cls: type,
    summary: str = "",
    aliases: tuple[str, ...] = (),
) -> None:
    """Register a policy factory under ``name``.

    ``factory(m, seed)`` must return a fresh scheduler; ``cls`` is the
    policy class, checked against the contract.  ``aliases`` are extra
    accepted spellings (the display name is always accepted).
    """
    check_policy(cls)
    key = name.strip().lower().replace("_", "-")
    if key in _REGISTRY:
        raise ValueError(f"scheduler {name!r} already registered")
    _REGISTRY[key] = (factory, cls, summary)
    for alias in aliases:
        _ALIASES[alias.strip().lower().replace("_", "-")] = key


def get_scheduler(name: str, m: int, seed: int | None = 0) -> ImmediateDispatchScheduler:
    """Build a fresh scheduler by registry name.

    Accepts canonical keys, display spellings recorded in trace
    headers, and is case/underscore-insensitive.  Raises
    :class:`ValueError` for unknown names (listing the registry).
    """
    key = canonical_name(name)
    entry = _REGISTRY.get(key)
    if entry is None:
        raise ValueError(
            f"unknown scheduler {name!r} (known: {', '.join(sorted(_REGISTRY))})"
        )
    factory, _, _ = entry
    return factory(m, seed)


def list_schedulers() -> list[dict[str, object]]:
    """Describe every registered policy (sorted by key): name, class
    name, preemptive/clairvoyant flags, summary."""
    out = []
    for key in sorted(_REGISTRY):
        _, cls, summary = _REGISTRY[key]
        out.append(
            {
                "name": key,
                "class": cls.__name__,
                "preemptive": bool(getattr(cls, "preemptive", False)),
                "clairvoyant": bool(getattr(cls, "clairvoyant", True)),
                "summary": summary,
            }
        )
    return out


# -- built-ins ---------------------------------------------------------------

register(
    "eft-min",
    lambda m, seed: EFT(m, tiebreak="min"),
    cls=EFT,
    summary="EFT, lowest-index tie-break (Algorithm 3)",
)
register(
    "eft-max",
    lambda m, seed: EFT(m, tiebreak="max"),
    cls=EFT,
    summary="EFT, highest-index tie-break (Section 7.4)",
)
register(
    "eft-rand",
    lambda m, seed: EFT(m, tiebreak="rand", rng=seed),
    cls=EFT,
    summary="EFT, uniform tie-break (Algorithm 4)",
)
register(
    "least-work",
    lambda m, seed: LeastWorkAssign(m),
    cls=LeastWorkAssign,
    summary="least total assigned work baseline",
    aliases=("leastwork",),
)
register(
    "round-robin",
    lambda m, seed: RoundRobinAssign(m),
    cls=RoundRobinAssign,
    summary="cyclic assignment baseline",
    aliases=("roundrobin",),
)
register(
    "random",
    lambda m, seed: RandomAssign(m, rng=seed),
    cls=RandomAssign,
    summary="uniform random eligible machine",
)
register(
    "lor",
    lambda m, seed: LeastOutstanding(m),
    cls=LeastOutstanding,
    summary="least outstanding requests (non-clairvoyant)",
)
register(
    "c3",
    lambda m, seed: C3Like(m),
    cls=C3Like,
    summary="C3-style replica ranking (non-clairvoyant)",
)
register(
    "srpt-ps",
    lambda m, seed: SRPTPS(m),
    cls=SRPTPS,
    summary="preemptive SRPT with processing sets (EFT-Min dispatch)",
    aliases=("srpt",),
)
register(
    "nc-setup",
    lambda m, seed: NCSetup(m),
    cls=NCSetup,
    summary="non-clairvoyant least-outstanding with setup times",
    aliases=("ncsetup", "nc-setup(s=1)"),
)
register(
    "speed-eft",
    lambda m, seed: GreedyRelated(SpeedCluster.two_tier(m, fast=max(1, m // 4), speedup=4.0)),
    cls=GreedyRelated,
    summary="speed-aware EFT on related machines (two-tier default)",
    aliases=("speedeft", "greedy(q)"),
)
