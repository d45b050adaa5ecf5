"""The ``SchedulingPolicy`` contract — what a zoo policy must provide.

Every policy in the registry is an
:class:`~repro.core.dispatch.ImmediateDispatchScheduler`: the paper's
Immediate Dispatch property (Section 3) is the one structural
assumption the whole stack — simulator, serve tier, shard router,
fault injection, campaigns — is built on.  The base class is the
contract; this module documents the hooks and provides a structural
checker the registry applies at registration time.

Required surface (provided or overridden on the base class)
-----------------------------------------------------------

``choose(task) -> (machine, tie_set)``
    The placement decision.  ``machine`` must be in ``task.eligible(m)``
    (the driver enforces it); ``tie_set`` is the reported candidate set
    (EFT's :math:`U'_i` of Equation (2); baselines report the full
    eligible set).  ``choose`` moves no books: a failure re-placement
    never calls it, so whatever a placement commits goes in ``charge``.

``service(task, machine) -> float`` / ``charge(task, machine, start) -> float``
    ``service`` is the task's service time on ``machine`` without side
    effects (``task.proc``; work over speed on related machines; plus a
    warmup when cold); the failure rule (:mod:`repro.core.failover`)
    ranks candidates by it.  ``charge`` commits the task from ``start``
    and returns its time, once per placement (fresh, re-placed,
    unparked) in every layer; it may update warm/feedback state and
    must be overridden with ``service``.  A charge other than
    ``task.proc`` lands in the sparse ``_service`` book, over which
    ``schedule()`` and the engine build *derived* instances.

``preemptive`` (class attribute, default ``False``)
    Whether the engine should preempt running tasks.  Preemptive
    policies must also provide::

        preempt_key(task, remaining, now) -> orderable

    an orderable priority the engine *minimises* over a machine's
    queued-plus-running tasks at every PREEMPT re-evaluation
    (``remaining`` is the task's remaining service time).  The engine
    preempts only on a strictly smaller key, so equal-priority tasks
    never thrash.  Preemption is machine-local: a preempted task keeps
    its machine assignment and its residual work cannot migrate.

``clairvoyant`` (class attribute, default ``True``)
    Whether ``choose`` reads ``task.proc``.  Non-clairvoyant policies
    decide from observable state only; they may still use the realised
    processing time inside ``service``/``charge`` (the *system*
    experiences the service time either way).

Optional surface
----------------

``on_replicas_added(machines, now)``
    Called by :meth:`repro.serve.shard.router.ShardRouter.apply_placement`
    (through each owning shard's ``Dispatcher.add_replicas``) when a
    rebalance widens replica sets onto ``machines``.  Setup-time
    policies invalidate their warm state here so newly-widened replicas
    pay the warmup penalty again.

``on_retract(tid, machine, start, end)``
    Called when ``retract`` undid ``tid``'s placement, the book's live
    entry (a failure, a withdrawal, a re-placement); C3 drops its
    pending feedback, LeastWork takes the work off its machine.

``state_dict()`` / ``load_state_dict(state)``
    JSON-ready policy state beyond the base class's book (horizons,
    task counts, live entries): warm sets, EWMAs; empty by default;
    serve snapshots store it.

``name`` (instance or class attribute)
    Human-readable policy name, recorded in trace headers.
"""

from __future__ import annotations

from ..core.dispatch import ImmediateDispatchScheduler

__all__ = ["check_policy"]


def check_policy(cls: type) -> None:
    """Structural contract check applied at registration time.

    Raises :class:`TypeError` on violations — a policy that is not an
    ``ImmediateDispatchScheduler``, a preemptive policy without a
    callable ``preempt_key``, or one overriding ``service`` only.
    """
    if not (isinstance(cls, type) and issubclass(cls, ImmediateDispatchScheduler)):
        raise TypeError(
            f"{cls!r} is not an ImmediateDispatchScheduler subclass; "
            "the zoo contract requires the immediate-dispatch driver"
        )
    if getattr(cls, "preemptive", False) and not callable(
        getattr(cls, "preempt_key", None)
    ):
        raise TypeError(
            f"{cls.__name__} declares preemptive=True but has no callable "
            "preempt_key(task, remaining, now)"
        )
    base = ImmediateDispatchScheduler
    if cls.service is not base.service and cls.charge is base.charge:
        raise TypeError(f"{cls.__name__} overrides service() but not charge()")
