"""Tests for the non-clairvoyant replica-selection policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Instance, Task, eft_schedule
from repro.core.nonclairvoyant import C3Like, LeastOutstanding
from repro.schedulers import NCSetup, get_scheduler
from repro.serve.dispatcher import Dispatcher
from tests.conftest import restricted_unit_instances


class TestLeastOutstanding:
    def test_spreads_simultaneous_arrivals(self):
        inst = Instance.build(3, releases=[0, 0, 0], procs=2.0)
        sched = LeastOutstanding(3).run(inst)
        assert sorted(sched.machine_of(i) for i in range(3)) == [1, 2, 3]

    def test_counts_decay_over_time(self):
        """Requests dispatched long ago no longer count as
        outstanding."""
        lor = LeastOutstanding(2)
        lor.submit(Task(tid=0, release=0, proc=1))
        lor.submit(Task(tid=1, release=0, proc=1))
        # both machines outstanding=1 at t=0; at t=5 both are free
        rec = lor.submit(Task(tid=2, release=5, proc=1))
        assert rec.machine == 1  # tie broken by index among zero counts

    def test_respects_processing_sets(self):
        inst = Instance.build(
            3, releases=[0, 0], procs=1.0, machine_sets=[{2, 3}, {2, 3}]
        )
        sched = LeastOutstanding(3).run(inst)
        assert {sched.machine_of(0), sched.machine_of(1)} == {2, 3}

    def test_nonclairvoyance(self):
        """LOR ignores task sizes: two queued tasks of very different
        lengths count the same, so it can pick the machine EFT
        avoids."""
        lor = LeastOutstanding(2)
        lor.submit(Task(tid=0, release=0, proc=100))  # M1 long
        lor.submit(Task(tid=1, release=0, proc=1))  # M2 short
        rec = lor.submit(Task(tid=2, release=0.5, proc=1))
        # counts: both 1 -> index tie -> machine 1 despite its backlog
        assert rec.machine == 1

    @given(restricted_unit_instances())
    @settings(max_examples=40, deadline=None)
    def test_valid_on_random(self, inst):
        LeastOutstanding(inst.m).run(inst).validate()


class TestC3Like:
    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            C3Like(2, alpha=0.0)
        with pytest.raises(ValueError):
            C3Like(2, alpha=1.5)

    def test_penalises_queue_buildup(self):
        c3 = C3Like(2)
        c3.submit(Task(tid=0, release=0, proc=5))
        c3.submit(Task(tid=1, release=0, proc=5))
        c3.submit(Task(tid=2, release=0, proc=5))  # M1 now has 2 outstanding
        rec = c3.submit(Task(tid=3, release=0, proc=5))
        assert rec.machine == 2  # (1+q)^3 strongly favours the shorter queue

    def test_ewma_feedback(self):
        """A machine observed to be slow gets deprioritised even at
        equal queue lengths."""
        c3 = C3Like(2, alpha=1.0)
        # machine 1 serves a long task, machine 2 a short one
        c3.submit(Task(tid=0, release=0, proc=10))  # -> M1 (tie, score equal, index)
        c3.submit(Task(tid=1, release=0, proc=1))  # -> M2
        # at t=20 both are idle and feedback has arrived:
        # ewma M1 = 10, M2 = 1
        rec = c3.submit(Task(tid=2, release=20, proc=1))
        assert rec.machine == 2

    def test_retracted_placement_is_never_observed(self):
        """A retracted placement's service never reaches the EWMA."""
        c3 = C3Like(2, alpha=1.0)
        c3.submit(Task(tid=0, release=0, proc=10, machines=frozenset({1})))
        c3.submit(Task(tid=1, release=0, proc=3, machines=frozenset({1})))
        c3.retract(1, 5.0)
        assert c3.outstanding(5.0) == {1: 1, 2: 0}
        c3.submit(Task(tid=2, release=20, proc=1))
        assert c3.ewma == {1: 10.0, 2: 1.0}

    @given(restricted_unit_instances())
    @settings(max_examples=40, deadline=None)
    def test_valid_on_random(self, inst):
        C3Like(inst.m).run(inst).validate()


class TestAgainstEFT:
    def test_unit_uniform_load_close_to_eft(self):
        """With unit tasks, outstanding count == waiting work, so LOR
        approximates EFT; its Fmax stays within a small factor."""
        from repro.simulation import WorkloadSpec, generate_workload

        spec = WorkloadSpec(m=8, n=2000, lam=0.6 * 8, k=3, strategy="overlapping")
        inst = generate_workload(spec, rng=1)
        eft_val = eft_schedule(inst, tiebreak="min").max_flow
        lor_val = LeastOutstanding(8).run(inst).max_flow
        assert lor_val <= 3 * eft_val + 2


def _scan(inflight: list, m: int, now: float) -> dict[int, int]:
    """The brute-force outstanding count: rescan every in-flight
    ``(completion, machine)`` and drop the finished ones (the oracle
    for the incremental heap)."""
    counts = {j: 0 for j in range(1, m + 1)}
    inflight[:] = [(c, j) for c, j in inflight if c > now]
    for _, j in inflight:
        counts[j] += 1
    return counts


_TRACKER_OPS = st.lists(
    st.one_of(
        # dispatch: release gap, proc, processing set, key
        st.tuples(
            st.just("submit"),
            st.sampled_from([0.0, 0.0, 0.25, 1.0]),
            st.sampled_from([0.5, 1.0, 2.0]),
            st.frozensets(st.integers(1, 3), min_size=1),
            st.sampled_from([None, 1, 2]),
        ),
        # a query at any (non-monotone) time
        st.tuples(st.just("query"), st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 6.0])),
    ),
    max_size=40,
)


class TestIncrementalOutstanding:
    @pytest.mark.parametrize("cls", [LeastOutstanding, C3Like, NCSetup])
    @given(ops=_TRACKER_OPS)
    @settings(max_examples=80, deadline=None)
    def test_counts_equal_brute_force_scan(self, cls, ops):
        m, sched = 3, cls(3)
        inflight, feedback, ewma, release = [], [], {j: 1.0 for j in range(1, 4)}, 0.0
        for op in ops:
            if op[0] == "query":
                assert sched.outstanding(op[1]) == _scan(inflight, m, op[1])
                continue
            _, gap, proc, machines, key = op
            release += gap
            _scan(inflight, m, release)  # choose() queries at the release
            if cls is C3Like:  # the sorted-rescan feedback oracle
                for c, j, service in sorted(feedback):
                    if c <= release:
                        ewma[j] = (1 - sched.alpha) * ewma[j] + sched.alpha * service
                feedback = [f for f in feedback if f[0] > release]
            task = Task(tid=sched.n_dispatched, release=release, proc=proc,
                        machines=machines, key=key)
            rec = sched.submit(task)
            completion = rec.start + sched.service_of(task.tid, proc)
            inflight.append((completion, rec.machine))
            feedback.append((completion, rec.machine, proc))
            if cls is C3Like:
                assert sched.ewma == ewma
        assert sched.outstanding(0.0) == _scan(inflight, m, 0.0)


_BOOK_OPS = st.lists(
    st.one_of(
        # a fresh release through Dispatcher.submit: gap, proc, set, key
        st.tuples(
            st.just("submit"),
            st.sampled_from([0.0, 0.0, 0.25, 1.0]),
            st.sampled_from([0.5, 1.0, 2.0]),
            st.frozensets(st.integers(1, 3), min_size=1),
            st.sampled_from([None, 1, 2]),
        ),
        # re-place a booked tid (Dispatcher.commit): which tid, which
        # machine of its set, how far past the last release
        st.tuples(
            st.just("commit"), st.integers(0, 99), st.integers(0, 2),
            st.sampled_from([0.0, 0.5, 1.0]),
        ),
        # undo a placement (Dispatcher.withdraw, or retract directly)
        st.tuples(
            st.sampled_from(["withdraw", "retract"]), st.integers(0, 99),
            st.sampled_from([0.0, 0.5, 1.0]),
        ),
        # outstanding/depth queries at any (non-monotone) time
        st.tuples(st.just("query"), st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 6.0])),
    ),
    max_size=40,
)


class TestOneBook:
    """The scheduler's one book against a full rescan of the live
    placements, over every way the serve tier writes and unwrites it:
    fresh placements, re-placements, withdrawals and retractions."""

    @pytest.mark.parametrize("policy", ["eft-min", "lor", "c3", "nc-setup"])
    @given(ops=_BOOK_OPS)
    @settings(max_examples=80, deadline=None)
    def test_book_equals_rescan(self, policy, ops):
        m = 3
        d = Dispatcher(get_scheduler(policy, m))
        sched = d.scheduler
        #: the rescan's books: live ``(end, machine)`` per tid, each
        #: placement's start, and the horizon rule of ``retract``
        live: dict[int, tuple[float, int]] = {}
        starts: dict[int, float] = {}
        horizon = {j: 0.0 for j in range(1, m + 1)}
        release, watermark, tasks = 0.0, 0.0, []

        def rescan(now):
            nonlocal watermark
            watermark = max(watermark, now)
            pairs = [(end, j) for end, j in live.values()]
            counts = _scan(pairs, m, watermark)
            for tid in [tid for tid, (end, _) in live.items() if end <= watermark]:
                del live[tid]
            return counts

        def unbook(tid, now):
            rescan(now)
            if tid in live:
                end, j = live.pop(tid)
                if horizon[j] == end:
                    horizon[j] = starts[tid]

        def book(tid, machine, start):
            end = start + sched.service_of(tid, tasks[tid].proc)
            live[tid], starts[tid], horizon[machine] = (end, machine), start, end

        for op in ops:
            if op[0] == "submit":
                _, gap, proc, machines, key = op
                release += gap
                task = Task(tid=len(tasks), release=release, proc=proc,
                            machines=machines, key=key)
                tasks.append(task)
                rescan(release)  # place retires at the release
                rec = d.submit(task)
                assert rec.start == max(release, horizon[rec.machine])
                book(task.tid, rec.machine, rec.start)
            elif op[0] == "commit" and tasks:
                _, pick, choice, dt = op
                task = tasks[pick % len(tasks)]
                machine = sorted(task.machines)[choice % len(task.machines)]
                now = release + dt
                unbook(task.tid, now)
                d.unbook(task.tid, now)  # the router unbooks a batch before committing
                rec = d.commit(task, machine, now, "failure")
                assert rec.start == max(now, horizon[machine])
                book(task.tid, machine, rec.start)
            elif op[0] in ("withdraw", "retract") and tasks:
                _, pick, dt = op
                tid, now = pick % len(tasks), release + dt
                if op[0] == "retract":
                    sched.retract(tid, now)
                    unbook(tid, now)
                else:
                    placed = d.placements.get(tid)
                    pulled = d.withdraw(tid, now)
                    assert (pulled is not None) == (placed is not None and placed[1] > now)
                    if pulled is not None:
                        unbook(tid, now)
            elif op[0] == "query":
                counts = rescan(op[1])
                assert sched.outstanding(op[1]) == counts
                assert [d.depth(j, op[1]) for j in range(1, m + 1)] == list(counts.values())
            counts = rescan(watermark)
            assert sched.outstanding(watermark) == counts
            assert [d.depth(j, watermark) for j in counts] == list(counts.values())
            assert sched.completions == horizon
