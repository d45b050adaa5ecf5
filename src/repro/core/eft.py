"""EFT — Earliest Finish Time scheduling (Algorithm 2 of the paper).

EFT pushes each released task onto the machine that would finish it the
earliest.  Because all machines are identical, "finishes earliest"
reduces to "is available earliest": the candidate (tie) set for task
:math:`T_i` restricted to its processing set :math:`\\mathcal{M}_i` is

.. math::

    U'_i = \\{ M_j \\in \\mathcal{M}_i \\;:\\; C_{j,i-1} \\le t'_{min,i} \\},
    \\qquad
    t'_{min,i} = \\max\\bigl(r_i, \\min_{M_j \\in \\mathcal{M}_i} C_{j,i-1}\\bigr)

(Equation (2); Equation (1) is the unrestricted special case).  A
tie-break policy then selects one machine of :math:`U'_i`.

The named variants of the paper:

* **EFT-Min** (Algorithm 3) — ``tiebreak="min"``: smallest index wins.
  Subject of the Theorem 8 lower bound.
* **EFT-Max** (Section 7.4) — ``tiebreak="max"``: largest index wins.
* **EFT-Rand** (Algorithm 4) — ``tiebreak="rand"``: uniform choice.
  Subject of the Theorem 9 lower bound.

EFT is clairvoyant (it needs :math:`p_i` on release to maintain the
machine completion times) and has the Immediate Dispatch property.
"""

from __future__ import annotations

import numpy as np

from .dispatch import ImmediateDispatchScheduler
from .schedule import Schedule
from .task import Instance, Task
from .tiebreak import TieBreak, get_tiebreak
from .vecengine import array_prefer_max, eft_decide, lower_eligibility

__all__ = ["EFT", "eft_schedule"]


class EFT(ImmediateDispatchScheduler):
    """Earliest Finish Time immediate-dispatch scheduler.

    Parameters
    ----------
    m:
        Number of machines.
    tiebreak:
        Tie-break policy or its name (``"min"``, ``"max"``, ``"rand"``,
        ``"least_loaded"``).
    rng:
        Seed or generator for the random tie-break (ignored otherwise).
    """

    def __init__(
        self,
        m: int,
        tiebreak: str | TieBreak = "min",
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(m)
        self.tiebreak = get_tiebreak(tiebreak, rng)
        self.name = f"EFT-{getattr(self.tiebreak, 'name', 'custom')}"

    def tie_set(self, task: Task) -> frozenset[int]:
        """The candidate set :math:`U'_i` of Equation (2) for ``task``
        given the current machine completion times."""
        eligible = task.eligible(self.m)
        earliest = min(self.completions[j] for j in eligible)
        t_min = max(task.release, earliest)
        return frozenset(j for j in eligible if self.completions[j] <= t_min)

    def choose(self, task: Task) -> tuple[int, frozenset[int]]:
        ties = self.tie_set(task)
        machine = self.tiebreak(sorted(ties), self.completions)
        return machine, ties


def eft_schedule(
    instance: Instance,
    tiebreak: str | TieBreak = "min",
    rng: np.random.Generator | int | None = None,
) -> Schedule:
    """Schedule ``instance`` with EFT and return the schedule.

    Plain Min/Max tie-breaks decide on the array engine (the same rule
    ``Simulator(backend="auto")`` applies) and return the schedule
    built from its columns (:meth:`Schedule.from_arrays`),
    decision-identical to the reference; every other tie-break runs
    ``EFT(m, tiebreak, rng).run(instance)``.
    """
    tb = get_tiebreak(tiebreak, rng)
    prefer_max = array_prefer_max(tb)
    if prefer_max is not None:
        tasks = instance.tasks
        elig = lower_eligibility(instance.m, tasks)
        rel = [t.release for t in tasks]
        proc = [t.proc for t in tasks]
        machines, starts, _ = eft_decide(instance.m, rel, proc, elig, prefer_max)
        return Schedule.from_arrays(
            instance,
            machines,
            starts,
            releases=np.asarray(rel, dtype=np.float64),
            procs=np.asarray(proc, dtype=np.float64),
        )
    return EFT(instance.m, tiebreak=tb).run(instance)
