"""Simulator instrumentation: the ``obs=`` recorder of the engine.

:class:`SimRecorder` implements the :class:`SimObserver` hook protocol
of :class:`repro.simulation.engine.Simulator` and feeds a
:class:`~repro.obs.recorders.MetricsRegistry` with the time-domain
quantities the Section 7 experiments (and the related work — tail flow
under SRPT, endpoint-capacity flow traces) observe:

* counters ``tasks_released`` / ``tasks_started`` / ``tasks_completed``;
* a flow-time histogram with configurable bucket edges, observed at
  every completion;
* an inter-start-gap histogram (time between consecutive starts on the
  same machine — a dispatch-smoothness signal);
* sampled time series: queue length and waiting work :math:`w_t(j)`
  per machine plus system-wide totals (install with :meth:`install`).

The recorder is duck-typed — the engine never imports this module at
run time — so ``repro.obs`` stays a leaf package.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, Sequence

from .recorders import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.task import Task
    from ..simulation.engine import Simulator

__all__ = ["DEFAULT_FLOW_EDGES", "DEFAULT_GAP_EDGES", "SimObserver", "SimRecorder"]

#: Default flow-time bucket edges: powers of two spanning unit-task
#: flows up to deep truncation backlogs.
DEFAULT_FLOW_EDGES: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Default inter-start-gap bucket edges (same dynamic range, finer head).
DEFAULT_GAP_EDGES: tuple[float, ...] = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


class SimObserver(Protocol):
    """Hook protocol the engine drives at its three lifecycle points.

    The fault lifecycle hooks (below the first three) are *optional*:
    the engine probes for them with ``getattr``, so observers that
    implement only the release/start/complete trio keep working on
    faulted runs.
    """

    def on_release(self, sim: "Simulator", task: "Task") -> None: ...

    def on_start(self, sim: "Simulator", task: "Task", machine: int) -> None: ...

    def on_complete(self, sim: "Simulator", task: "Task", machine: int) -> None: ...

    def on_machine_down(self, sim: "Simulator", machine: int) -> None: ...

    def on_machine_up(self, sim: "Simulator", machine: int) -> None: ...

    def on_requeue(self, sim: "Simulator", task: "Task", machine: int) -> None: ...

    def on_park(self, sim: "Simulator", task: "Task") -> None: ...

    def on_unpark(self, sim: "Simulator", task: "Task", machine: int) -> None: ...

    def on_resume(self, sim: "Simulator", task: "Task", machine: int) -> None: ...

    def on_preempt(self, sim: "Simulator", task: "Task", machine: int) -> None: ...

    def on_preempt_resume(self, sim: "Simulator", task: "Task", machine: int) -> None: ...


class SimRecorder:
    """Metrics-backed :class:`SimObserver`.

    Parameters
    ----------
    registry:
        Registry to record into (a fresh one by default; share one to
        merge several runs into a single snapshot).
    flow_edges / gap_edges:
        Bucket edges of the flow-time and inter-start-gap histograms.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        flow_edges: Sequence[float] = DEFAULT_FLOW_EDGES,
        gap_edges: Sequence[float] = DEFAULT_GAP_EDGES,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.released = self.registry.counter("tasks_released")
        self.started = self.registry.counter("tasks_started")
        self.completed = self.registry.counter("tasks_completed")
        self.flow_hist = self.registry.histogram("flow", flow_edges)
        self.gap_hist = self.registry.histogram("inter_start_gap", gap_edges)
        self._last_start: dict[int, float] = {}

    # -- engine hooks -------------------------------------------------------
    def on_release(self, sim: "Simulator", task: "Task") -> None:
        self.released.inc()

    def on_start(self, sim: "Simulator", task: "Task", machine: int) -> None:
        self.started.inc()
        prev = self._last_start.get(machine)
        if prev is not None:
            self.gap_hist.observe(sim.now - prev)
        self._last_start[machine] = sim.now

    def on_complete(self, sim: "Simulator", task: "Task", machine: int) -> None:
        self.completed.inc()
        self.flow_hist.observe(sim.now - task.release)

    # -- fault hooks --------------------------------------------------------
    # Recorders are created lazily at the first fault event, so the
    # snapshot of a fault-free run (or an empty FaultSchedule) stays
    # byte-identical to one taken before fault injection existed.
    def on_machine_down(self, sim: "Simulator", machine: int) -> None:
        self.registry.counter("machine_failures").inc()
        self.registry.series(f"machine_down[{machine}]").observe(sim.now, 1.0)

    def on_machine_up(self, sim: "Simulator", machine: int) -> None:
        self.registry.counter("machine_recoveries").inc()
        self.registry.series(f"machine_down[{machine}]").observe(sim.now, 0.0)
        self.registry.gauge("downtime_total").set(
            sum(m.downtime for m in sim.machines.values())
        )

    def on_requeue(self, sim: "Simulator", task: "Task", machine: int) -> None:
        self.registry.counter("tasks_requeued").inc()

    def on_park(self, sim: "Simulator", task: "Task") -> None:
        self.registry.counter("tasks_parked").inc()
        self.registry.gauge("parked_now").set(len(sim.parked))

    def on_unpark(self, sim: "Simulator", task: "Task", machine: int) -> None:
        self.registry.counter("tasks_unparked").inc()
        # Age at unpark: how long the task waited (from release) for a
        # machine of its set to come back.
        self.registry.histogram("park_wait", DEFAULT_GAP_EDGES).observe(
            sim.now - task.release
        )

    def on_resume(self, sim: "Simulator", task: "Task", machine: int) -> None:
        self.registry.counter("tasks_resumed").inc()

    # -- preemption hooks ---------------------------------------------------
    # Lazily created like the fault recorders: snapshots of runs under
    # non-preemptive policies stay byte-identical to the pre-zoo format.
    def on_preempt(self, sim: "Simulator", task: "Task", machine: int) -> None:
        self.registry.counter("tasks_preempted").inc()

    def on_preempt_resume(self, sim: "Simulator", task: "Task", machine: int) -> None:
        self.registry.counter("preempt_resumes").inc()

    # -- sampled series -----------------------------------------------------
    def install(self, sim: "Simulator", horizon: float, period: float = 1.0) -> None:
        """Schedule periodic OBSERVE sampling on ``sim`` up to
        ``horizon``: per-machine queue length and waiting work, plus
        the system totals.  Samples land *after* same-instant releases
        and completions (the pinned event order), so each sample is the
        settled state of its instant."""
        if period <= 0:
            raise ValueError("period must be positive")
        t = period
        while t <= horizon:
            sim.at(t, self.sample)
            t += period

    def sample(self, sim: "Simulator") -> None:
        """Record one sample of the queue/waiting-work series at
        ``sim.now`` (usable directly as a ``sim.at`` callback)."""
        now = sim.now
        total_queued = 0
        total_work = 0.0
        for j, work in enumerate(sim.waiting_profile(), 1):
            queued = len(sim.machines[j].queue)
            self.registry.series(f"queue_len[{j}]").observe(now, queued)
            self.registry.series(f"waiting_work[{j}]").observe(now, work)
            total_queued += queued
            total_work += work
        self.registry.series("queue_len_total").observe(now, total_queued)
        self.registry.series("waiting_work_total").observe(now, total_work)
