"""Unit tests for the event queue."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EFT
from repro.simulation import EventKind, EventQueue, Simulator
from repro.simulation.events import _KIND_PRIORITY, Event
from tests.conftest import unrestricted_instances


class TestEventQueue:
    def test_time_ordering(self):
        q = EventQueue()
        q.push(3.0, EventKind.RELEASE, "c")
        q.push(1.0, EventKind.RELEASE, "a")
        q.push(2.0, EventKind.RELEASE, "b")
        assert [q.pop().payload for _ in range(3)] == ["a", "b", "c"]

    def test_stable_within_time(self):
        """Simultaneous events fire in scheduling order (the adversary
        batches rely on it)."""
        q = EventQueue()
        for i in range(10):
            q.push(1.0, EventKind.RELEASE, i)
        assert [q.pop().payload for _ in range(10)] == list(range(10))

    def test_peek(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(5.0, EventKind.OBSERVE)
        assert q.peek_time() == 5.0
        assert len(q) == 1

    def test_bool(self):
        q = EventQueue()
        assert not q
        q.push(0.0, EventKind.COMPLETE)
        assert q

    def test_has_work(self):
        q = EventQueue()
        assert not q.has_work()
        q.push(1.0, EventKind.OBSERVE)
        assert not q.has_work()
        q.push(2.0, EventKind.RELEASE)
        assert q.has_work()


class TestSameInstantOrdering:
    """The pinned within-instant order: COMPLETE < RELEASE < OBSERVE."""

    def test_kind_priority_at_equal_time(self):
        q = EventQueue()
        # Scheduled in the *reverse* of the firing order.
        q.push(1.0, EventKind.OBSERVE, "observe")
        q.push(1.0, EventKind.RELEASE, "release")
        q.push(1.0, EventKind.COMPLETE, "complete")
        assert [q.pop().payload for _ in range(3)] == [
            "complete",
            "release",
            "observe",
        ]

    def test_priority_only_breaks_time_ties(self):
        q = EventQueue()
        q.push(2.0, EventKind.COMPLETE, "late-complete")
        q.push(1.0, EventKind.OBSERVE, "early-observe")
        assert q.pop().payload == "early-observe"

    def test_fifo_within_kind_at_equal_time(self):
        q = EventQueue()
        for i in range(5):
            q.push(1.0, EventKind.RELEASE, i)
        q.push(1.0, EventKind.COMPLETE, "c")
        assert q.pop().payload == "c"
        assert [q.pop().payload for _ in range(5)] == list(range(5))


class TestExtend:
    """``extend`` is a batch of ``push`` calls: same seqs, same order."""

    def test_interleaved_push_and_extend_fire_fifo(self):
        q = EventQueue()
        q.push(1.0, EventKind.RELEASE, "p0")
        q.extend(EventKind.RELEASE, [(1.0, "e0"), (1.0, "e1")])
        q.push(1.0, EventKind.RELEASE, "p1")
        q.extend(EventKind.RELEASE, [(1.0, "e2")])
        assert [q.pop().payload for _ in range(5)] == ["p0", "e0", "e1", "p1", "e2"]

    def test_kind_priority_holds_across_push_and_extend(self):
        q = EventQueue()
        q.extend(EventKind.OBSERVE, [(1.0, "o0")])
        q.extend(EventKind.RELEASE, [(1.0, "r0"), (0.5, "early"), (1.0, "r1")])
        q.push(1.0, EventKind.COMPLETE, "c")
        q.push(1.0, EventKind.MACHINE_DOWN, "down")
        q.extend(EventKind.MACHINE_UP, [(1.0, "up")])
        assert [q.pop().payload for _ in range(7)] == [
            "early", "up", "c", "down", "r0", "r1", "o0",
        ]

    def test_extend_onto_queued_faults_pops_like_pushes(self):
        faults = [
            (2.0, EventKind.MACHINE_DOWN, 1),
            (2.0, EventKind.MACHINE_UP, 2),
            (5.0, EventKind.MACHINE_UP, 1),
        ]
        releases = [(float(t), f"r{i}") for i, t in enumerate([0, 2, 2, 5, 1, 5, 7, 2])]
        pushed, extended = EventQueue(), EventQueue()
        for q in (pushed, extended):
            for time_, kind, machine in faults:
                q.push(time_, kind, machine)
        for time_, payload in releases:
            pushed.push(time_, EventKind.RELEASE, payload)
        extended.extend(EventKind.RELEASE, releases)
        n = len(faults) + len(releases)
        assert len(extended) == n

        def drain(q):
            return [(ev.time, ev.kind, ev.seq, ev.payload) for ev in (q.pop() for _ in range(n))]

        assert drain(pushed) == drain(extended)

    def test_extend_empty_is_a_no_op(self):
        q = EventQueue()
        q.extend(EventKind.RELEASE, [])
        assert not q and q.peek_time() is None


_TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0])
_KINDS = st.sampled_from(list(EventKind))
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _KINDS, _TIMES),
        st.tuples(st.just("extend"), _KINDS, st.lists(_TIMES, max_size=6)),
        st.tuples(st.just("pop")),
    ),
    max_size=60,
)


class TestQueueOrderProperty:
    """Any interleaving of push/extend/pop pops in the order of a sort
    by ``(time, kind priority, insertion index)`` — the pinned
    same-instant kind order, FIFO within a kind."""

    @given(_OPS)
    @settings(max_examples=200, deadline=None)
    def test_pop_order_is_time_priority_insertion(self, ops):
        q, pending, inserted = EventQueue(), [], 0

        def add(time_, kind):
            nonlocal inserted
            pending.append((time_, _KIND_PRIORITY[kind], inserted, kind))
            inserted += 1
            return inserted - 1

        for op in ops:
            if op[0] == "push":
                _, kind, time_ = op
                q.push(time_, kind, add(time_, kind))
            elif op[0] == "extend":
                _, kind, times = op
                q.extend(kind, [(time_, add(time_, kind)) for time_ in times])
            elif pending:
                pending.sort()
                time_, _, index, kind = pending.pop(0)
                ev = q.pop()
                assert (ev.time, ev.kind, ev.payload) == (time_, kind, index)
        pending.sort()
        assert [(ev.time, ev.kind, ev.payload) for ev in (q.pop() for _ in pending)] == [
            (time_, kind, index) for time_, _, index, kind in pending
        ]
        assert not q

    def test_event_is_a_plain_tuple(self):
        q = EventQueue()
        ev = q.push(1.5, EventKind.COMPLETE, ("payload",))
        assert isinstance(ev, Event) and isinstance(ev, tuple)
        assert ev == (1.5, _KIND_PRIORITY[EventKind.COMPLETE], 0, EventKind.COMPLETE, ("payload",))
        assert (ev.time, ev.seq, ev.kind, ev.payload) == (1.5, 0, EventKind.COMPLETE, ("payload",))


class TestCoincidingTimesMatchAnalytic:
    """With completions firing before same-instant releases, the
    event-driven simulator reproduces the analytic EFT schedule even
    when a release coincides with a completion."""

    def _simulate(self, inst, tiebreak):
        sim = Simulator(EFT(inst.m, tiebreak=tiebreak))
        sim.add_instance(inst)
        return sim.run()

    def test_release_at_completion_instant(self):
        # m=1, unit tasks released at 0, 1, 1: task 0 completes at 1,
        # exactly when tasks 1 and 2 arrive.  The freed machine must be
        # visible to the same-instant dispatch.
        from repro.core import Instance, Task

        inst = Instance(
            m=1,
            tasks=(
                Task(tid=0, release=0.0, proc=1.0),
                Task(tid=1, release=1.0, proc=1.0),
                Task(tid=2, release=1.0, proc=1.0),
            ),
        )
        result = self._simulate(inst, "min")
        analytic = EFT(inst.m, tiebreak="min").run(inst)
        assert result.schedule.same_placements(analytic)
        for tid in (0, 1, 2):
            assert result.schedule.start_of(tid) == analytic.start_of(tid)

    @given(unrestricted_instances(unit=True, integral_releases=True))
    @settings(max_examples=60, deadline=None)
    def test_integral_unit_instances(self, inst):
        """Unit procs + integral releases maximise coinciding
        completion/release instants."""
        for tiebreak in ("min", "max"):
            result = self._simulate(inst, tiebreak)
            analytic = EFT(inst.m, tiebreak=tiebreak).run(inst)
            assert result.schedule.same_placements(analytic)
