"""The scheduler zoo: pluggable policies behind one registry.

Every policy is an
:class:`~repro.core.dispatch.ImmediateDispatchScheduler` (the
``SchedulingPolicy`` contract of :mod:`~repro.schedulers.contract`),
registered by name in :mod:`~repro.schedulers.registry` and therefore
simulatable, servable (``repro serve --scheduler NAME``), faultable,
shardable, and benchmarkable with no per-policy wiring.  The zoo adds
three policies beyond the paper's EFT family:

* :class:`~repro.schedulers.srpt.SRPTPS` — preemptive SRPT with
  processing-set restrictions (Fox & Moseley);
* :class:`~repro.schedulers.ncsetup.NCSetup` — non-clairvoyant
  dispatch with per-machine setup times modelling replica cache warmup
  (Mäcker et al.);
* Speed-EFT — :class:`~repro.related.GreedyRelated`, speed-aware EFT
  on related machines (Bansal & Cloostermans / Bansal & Kulkarni).

``repro compare-schedulers`` runs the zoo head-to-head on shared
seeded workloads (:mod:`~repro.schedulers.compare`).
"""

from .compare import CompareConfig, compare_cell, render_table, run_compare
from .contract import check_policy
from .ncsetup import NCSetup
from .registry import canonical_name, get_scheduler, list_schedulers, register
from .srpt import SRPTPS

__all__ = [
    "CompareConfig",
    "NCSetup",
    "SRPTPS",
    "canonical_name",
    "check_policy",
    "compare_cell",
    "get_scheduler",
    "list_schedulers",
    "register",
    "render_table",
    "run_compare",
]
