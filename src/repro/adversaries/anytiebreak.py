"""The Theorem 10 adversary: EFT with *any* tie-break policy.

Extends the Theorem 8 instance with two rounds of tiny tasks at each
integer time so that machine completion times are staggered by
:math:`i\\delta` (machine :math:`M_i` always becomes available
:math:`i\\delta` after the nominal instant).  The staggering removes
every tie, so EFT — whatever its tie-break — is forced to make exactly
the EFT-Min decisions on the regular tasks (Lemma 7), and the
:math:`m-k+1` flow of Theorem 8 follows.

Construction at each time :math:`t` (before the regular batch):

* **Round 1** — while some machine is idle, submit a task of duration
  :math:`c\\varepsilon` (with :math:`c = 1, 2, \\dots`) whose size-
  :math:`k` interval covers the first idle machine; EFT necessarily
  parks it on an idle machine, so after :math:`m_{idle}` submissions
  all machines are busy, with pairwise distinct completion times.
* **Round 2** — for :math:`c = 1..m_{idle}` in order, if round-1 task
  :math:`c` landed on machine :math:`M_i`, submit a task of duration
  :math:`i\\delta - c\\varepsilon` covering :math:`M_i`.  Its interval's
  unique earliest machine is :math:`M_i`, so it lands there and tops
  the machine up to exactly :math:`t + i\\delta`.

Durations satisfy :math:`\\varepsilon < \\delta/(2m)` and
:math:`m\\delta < 1`; the total small volume is kept :math:`\\ll 1` so
the offline optimum stays :math:`1 + o(1)`.
"""

from __future__ import annotations

from ..core.task import Task
from ..theory.bounds import eft_interval_lower_bound
from .base import Adversary, AdversaryResult, SchedulerFactory, TidCounter
from .eftmin import task_type, type_interval

__all__ = ["AnyTiebreakAdversary"]

_TOL = 1e-9


class AnyTiebreakAdversary(Adversary):
    """Tie-free EFT adversary (Theorem 10).

    Parameters
    ----------
    m, k:
        Cluster size and interval width, ``1 < k < m``.
    steps:
        Number of integer time steps (defaults to :math:`m^3`, the
        horizon sufficient for EFT-Min convergence).
    delta:
        Per-machine stagger; defaults small enough that the whole
        run's small-task volume stays below 0.01 time units.
    """

    def __init__(
        self, m: int, k: int, steps: int | None = None, delta: float | None = None
    ) -> None:
        if not (1 < k < m):
            raise ValueError(f"theorem requires 1 < k < m, got m={m}, k={k}")
        self.m = m
        self.k = k
        self.steps = steps if steps is not None else m**3
        if delta is None:
            # Keep total small volume below 0.01: per step it is at most
            # sum_i i*delta <= m^2 * delta.
            delta = min(1.0 / (2 * m), 0.01 / (self.steps * m * m))
        if delta * m >= 1.0:
            raise ValueError("delta must satisfy m * delta < 1")
        self.delta = float(delta)
        self.eps = self.delta / (4 * m)  # < delta / (2m), as the proof requires

    def theoretical_bound(self) -> int:
        """:math:`m - k + 1` — Theorems 8/9/10's bound."""
        return eft_interval_lower_bound(self.m, self.k)

    def _covering_interval(self, machine: int) -> frozenset[int]:
        """A size-``k`` linear interval containing ``machine``."""
        start = min(machine, self.m - self.k + 1)
        return frozenset(range(start, start + self.k))

    def run(self, scheduler_factory: SchedulerFactory) -> AdversaryResult:
        m, k = self.m, self.k
        scheduler = scheduler_factory(m)
        tid = TidCounter()
        total_small = 0.0
        regular_flows_max = 0.0
        for t in range(self.steps):
            now = float(t)
            # -- round 1: occupy every idle machine with distinct tiny tasks.
            allocations: list[int] = []  # machine of the c-th round-1 task
            c = 1
            while True:
                idle = [
                    j for j in range(1, m + 1) if scheduler.completions[j] <= now + _TOL
                ]
                if not idle:
                    break
                target = idle[0]
                dur = c * self.eps
                rec = scheduler.submit(
                    Task(tid(), now, dur, machines=self._covering_interval(target))
                )
                total_small += dur
                allocations.append(rec.machine)
                c += 1
            # -- round 2: top every round-1 machine up to exactly t + i*delta.
            for c_idx, i_mach in enumerate(allocations, start=1):
                dur = i_mach * self.delta - c_idx * self.eps
                rec = scheduler.submit(
                    Task(tid(), now, dur, machines=self._covering_interval(i_mach))
                )
                total_small += dur
                if rec.machine != i_mach:  # pragma: no cover - guards the construction
                    raise RuntimeError(
                        f"round-2 task meant for machine {i_mach} landed on {rec.machine}; "
                        "stagger construction violated"
                    )
            # -- the regular Theorem 8 batch.
            for i in range(1, m + 1):
                lam = task_type(i, m, k)
                rec = scheduler.submit(
                    Task(tid(), now, 1.0, machines=type_interval(lam, m, k))
                )
                flow = rec.start + 1.0 - now
                regular_flows_max = max(regular_flows_max, flow)
        opt_upper = 1.0 + total_small  # piling the small tasks onto the
        # Theorem-8 optimal placement delays any task by at most the
        # total small volume.
        result = self._finalize(scheduler, opt_fmax=opt_upper, opt_is_exact=False)
        return result

    def regular_max_flow(self, result: AdversaryResult) -> float:
        """Maximum flow over the *regular* (unit) tasks of a result."""
        return max(a.flow for a in result.schedule if a.task.proc == 1.0)
