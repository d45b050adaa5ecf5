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


class TestReserve:
    """``reserve`` takes a block of seqs for events kept outside the
    heap: later pushes number after it, as if the block had been pushed."""

    def test_pushes_number_after_the_block(self):
        q = EventQueue()
        q.push(1.0, EventKind.RELEASE, "p0")
        assert q.reserve(3) == 1
        ev = q.push(1.0, EventKind.RELEASE, "p1")
        assert ev.seq == 4
        assert [q.pop().payload for _ in range(2)] == ["p0", "p1"]

    def test_reserve_zero_takes_no_seq(self):
        q = EventQueue()
        assert q.reserve(0) == 0
        assert q.push(1.0, EventKind.OBSERVE).seq == 0
        assert len(q) == 1


_TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0])
_KINDS = st.sampled_from(list(EventKind))
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _KINDS, _TIMES),
        st.tuples(st.just("reserve"), st.integers(0, 6)),
        st.tuples(st.just("pop")),
    ),
    max_size=60,
)


class TestQueueOrderProperty:
    """Any interleaving of push/reserve/pop pops in the order of a sort
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
            elif op[0] == "reserve":
                q.reserve(op[1])
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
