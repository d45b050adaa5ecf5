"""Non-clairvoyant dispatch policies (replica selection).

EFT is clairvoyant: it needs :math:`p_i` at release to maintain exact
machine completion times (Section 4).  Real key-value stores do not
know request service times in advance; the systems the paper cites as
context — C3 (Suresh et al., NSDI'15) and Héron (Jaiman et al.,
SRDS'18) — rank replicas using *observable* signals instead.  This
module implements the two classic observable policies so the
simulation substrate can compare them against the clairvoyant EFT
upper baseline:

* :class:`LeastOutstanding` — pick the eligible machine with the
  fewest outstanding (dispatched, not yet finished) requests; ties by
  index.  The standard "least outstanding requests" load-balancer
  rule.
* :class:`C3Like` — a simplified C3 scoring rule: rank replicas by
  :math:`(1 + q_j)^3 \\cdot \\bar{s}_j`, where :math:`q_j` is the
  outstanding count and :math:`\\bar{s}_j` an exponentially weighted
  moving average of observed service times on :math:`M_j` (the cubing
  penalises queue build-up, C3's key idea).  Feedback (service time
  observations) arrives on task completion, which these policies
  track from the passage of simulated time.

Both are immediate-dispatch schedulers over the same driver as EFT, so
every metric, test harness and experiment applies unchanged.  They
count outstanding requests in the base class's one book, retired at each
release: completions *as of the current release time*, exactly what a
coordinator knows when the request arrives.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Mapping

from .dispatch import ImmediateDispatchScheduler
from .task import Task

__all__ = ["LeastOutstanding", "C3Like"]


class LeastOutstanding(ImmediateDispatchScheduler):
    """Least-outstanding-requests replica selection."""

    clairvoyant = False

    def __init__(self, m: int) -> None:
        super().__init__(m)
        self.name = "LOR"

    def choose(self, task: Task) -> tuple[int, frozenset[int]]:
        eligible = sorted(task.eligible(self.m))
        counts = self._counts  # retired at the release by ``place``
        machine = min(eligible, key=lambda j: (counts[j], j))
        return machine, frozenset(eligible)


class C3Like(ImmediateDispatchScheduler):
    """Simplified C3 replica ranking.

    Score of machine :math:`M_j` for an arriving request:
    :math:`(1 + q_j)^3 \\cdot \\bar{s}_j` with :math:`\\bar{s}_j` an
    EWMA (factor ``alpha``) of service times of requests *completed*
    on :math:`M_j` by the arrival instant, initialised to 1.
    """

    clairvoyant = False

    def __init__(self, m: int, alpha: float = 0.3) -> None:
        super().__init__(m)
        if not (0 < alpha <= 1):
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.ewma: dict[int, float] = {j: 1.0 for j in range(1, m + 1)}
        self.name = "C3"
        #: min-heap of (completion_time, machine, service_time, tid)
        #: pending feedback (the tid only names a retracted placement's)
        self._pending_feedback: list[tuple[float, int, float, int]] = []

    def _absorb_feedback(self, now: float) -> None:
        # Feedback must be absorbed in completion order for the EWMA to
        # be deterministic: the heap pops in sorted-tuple order.
        pending, ewma, alpha = self._pending_feedback, self.ewma, self.alpha
        while pending and pending[0][0] <= now:
            _, machine, service, _ = heappop(pending)
            ewma[machine] = (1 - alpha) * ewma[machine] + alpha * service

    def choose(self, task: Task) -> tuple[int, frozenset[int]]:
        now = task.release
        self._absorb_feedback(now)
        eligible = sorted(task.eligible(self.m))
        counts = self._counts  # retired at the release by ``place``
        machine = min(
            eligible, key=lambda j: ((1 + counts[j]) ** 3 * self.ewma[j], j)
        )
        return machine, frozenset(eligible)

    def charge(self, task: Task, machine: int, start: float) -> float:
        """The service observation, fed back to the EWMA once the task
        completes."""
        dur = task.proc
        heappush(self._pending_feedback, (start + dur, machine, dur, task.tid))
        return dur

    def on_retract(self, tid: int, machine: int, start: float, end: float) -> None:
        """An undone placement is never observed: drop its pending
        feedback, so the EWMA absorbs only service that happened."""
        pending = [f for f in self._pending_feedback if f[3] != tid]
        heapify(pending)
        self._pending_feedback = pending

    def state_dict(self) -> dict[str, Any]:
        feedback = sorted(self._pending_feedback)
        return {"ewma": list(self.ewma.values()), "feedback": feedback}

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        self.ewma = dict(enumerate(state["ewma"], 1))
        self._pending_feedback = sorted(map(tuple, state["feedback"]))
