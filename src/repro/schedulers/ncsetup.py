"""NC-Setup — non-clairvoyant scheduling with per-machine setup times.

Mäcker et al. (PAPERS.md) study online machine minimisation and
max-flow with *setup times*: a machine must pay a fixed setup
:math:`s` before serving work it is not configured for.  In the serve
tier this models **replica cache warmup** — a replica newly added to a
key's processing set serves its first request from cold storage.

The policy is non-clairvoyant (``clairvoyant = False``): it never
reads ``task.proc`` to decide.  It ranks eligible machines by the
observable pair *(outstanding requests, cold penalty)*:

.. math::

    \\text{score}(j) = q_j + [j \\text{ cold for } T_i] \\cdot s

with ties broken by index — a least-outstanding-requests rule that
charges cold machines ``s`` phantom requests' worth of reluctance.
The *system* model: the first task of each key group on a machine pays
``setup`` extra service time (the warmup), priced by ``service`` and
paid by ``charge`` at every placement, so the analytic books, the
engine, and the serve tier all see the realised times.

Warm state is keyed ``(machine, task.key)``; unkeyed tasks share the
key ``None`` (the machine warms once).  A rebalance that widens replica
sets invalidates the warm state of the added machines via
:meth:`NCSetup.on_replicas_added` — the
:meth:`repro.serve.shard.router.ShardRouter.apply_placement` integration —
so migration is not free.  A retracted placement (a failure, a
withdrawal) leaves the warm set as it is: the machine stays warm for
the key, even if the request never ran there.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..core.dispatch import ImmediateDispatchScheduler
from ..core.task import Task

__all__ = ["NCSetup"]


class NCSetup(ImmediateDispatchScheduler):
    """Non-clairvoyant least-outstanding dispatch with setup times."""

    clairvoyant = False

    def __init__(self, m: int, setup: float = 1.0) -> None:
        super().__init__(m)
        if setup < 0:
            raise ValueError("setup must be non-negative")
        self.setup = float(setup)
        #: keys each machine is warm for (has served at least once)
        self.warm: dict[int, set] = {j: set() for j in range(1, m + 1)}
        #: total setup time paid so far (observability)
        self.setup_paid = 0.0
        self.name = f"NC-Setup(s={self.setup:g})"

    def is_warm(self, machine: int, task: Task) -> bool:
        """Whether ``machine`` is configured (cache-warm) for ``task``."""
        return task.key in self.warm[machine]

    def choose(self, task: Task) -> tuple[int, frozenset[int]]:
        eligible = sorted(task.eligible(self.m))
        counts = self._counts  # retired at the release by ``place``
        key, warm, setup = task.key, self.warm, self.setup
        machine = min(
            eligible, key=lambda j: (counts[j] + (0.0 if key in warm[j] else setup), j)
        )
        return machine, frozenset(eligible)

    def service(self, task: Task, machine: int) -> float:
        """``proc`` plus the warmup on a cold machine."""
        return task.proc if self.is_warm(machine, task) else task.proc + self.setup

    def charge(self, task: Task, machine: int, start: float) -> float:
        """:meth:`service` (warmup included), then mark the machine
        warm."""
        dur = self.service(task, machine)
        if not self.is_warm(machine, task):
            self.setup_paid += self.setup
            self.warm[machine].add(task.key)
        return dur

    def state_dict(self) -> dict[str, Any]:
        warm = [sorted(self.warm[j], key=str) for j in range(1, self.m + 1)]
        return {"warm": warm, "setup_paid": self.setup_paid}

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        self.warm = {j: set(keys) for j, keys in enumerate(state["warm"], 1)}
        self.setup_paid = state["setup_paid"]

    # -- rebalance integration --------------------------------------------
    def on_replicas_added(self, machines, now: float) -> None:
        """A rebalance widened replica sets onto ``machines``: their
        caches are cold again, so the next task of every key pays the
        warmup on them."""
        for j in machines:
            if j in self.warm:
                self.warm[j].clear()
