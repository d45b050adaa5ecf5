"""The failure rule — Equation (2) over the alive part of a processing
set — shared by the :class:`~repro.simulation.engine.Simulator` and the
serve tier's :class:`~repro.serve.shard.router.ShardRouter`; each
passes its own waiting work ``w_j`` (real queue vs committed horizon).

Both re-place a displaced batch alike (``Simulator._redispatch``,
``ShardRouter.redispatch``): retract every placement, tail first, then
place each task in order by :func:`earliest_finish`, or park it unbooked.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .task import Task

__all__ = ["earliest_finish", "split_parked"]


def earliest_finish(
    candidates: Iterable[int],
    waiting: Callable[[int], float],
    service: Callable[[int], float],
) -> int:
    """The candidate minimising ``(w_j + s_j, w_j, j)`` with the pure
    ``s_j = service(task, j)``.  The ``w_j`` term decides when finishes
    round to one float (``(0.1 + 0.2) + 1.0 == 0.3 + 1.0``), so a policy
    whose service is the same everywhere keeps the least-``w_j`` pick."""
    return min((w + service(j), w, j) for j, w in ((j, waiting(j)) for j in candidates))[2]


def split_parked(
    parked: Sequence[Task], alive: set[int] | frozenset[int], m: int
) -> tuple[list[Task], list[Task]]:
    """``(placeable, still_parked)`` at a revival, both in park order."""
    ready = [t for t in parked if t.eligible(m) & alive]
    return ready, [t for t in parked if not t.eligible(m) & alive]
