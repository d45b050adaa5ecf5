"""The array backend must be bit-identical to the reference engine.

The vectorized fast path (``Simulator(backend="auto")``) is
only allowed to exist because nothing can tell it ran: every golden
fixture replays byte-identically, every SimulationResult field matches
the reference loop exactly (``==``, not approx), and ineligible
configurations — random tie-breaks, fault schedules, observer hooks —
fall back silently with the reason recorded.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EFT, Instance, Task
from repro.simulation import (
    Simulator,
    UnknownBackendError,
    WorkloadSpec,
    generate_workload,
)
from tests.conftest import examples

RESULT_FIELDS = (
    "max_flow",
    "mean_flow",
    "makespan",
    "n_completed",
    "utilization",
    "n_pending",
    "n_requeued",
    "n_parked",
    "n_resumed",
    "total_downtime",
    "wasted_work",
    "n_preempted",
)


def _workload(m=8, n=300, k=3, strategy="overlapping", rng=5, load=0.7):
    spec = WorkloadSpec(m=m, n=n, lam=load * m, k=k, strategy=strategy)
    return generate_workload(spec, rng=rng)


def _pair(inst, tiebreak="min", until=None, feed="instance"):
    """Run the same workload on both backends; return (auto, reference)
    (simulator, result) pairs."""
    out = []
    for backend in ("auto", "reference"):
        sim = Simulator(EFT(inst.m, tiebreak=tiebreak), backend=backend)
        if feed == "instance":
            sim.add_instance(inst)
        else:
            sim.add_tasks(feed)
        out.append((sim, sim.run(until=until)))
    return out


def _assert_identical(ra, rr):
    """Field-exact SimulationResult equality (bit-level, tol=0)."""
    for f in RESULT_FIELDS:
        assert getattr(ra, f) == getattr(rr, f), f
    assert ra.schedule.same_placements(rr.schedule, tol=0.0)
    assert np.array_equal(ra.schedule.flows(), rr.schedule.flows())
    assert np.array_equal(ra.schedule.machine_loads(), rr.schedule.machine_loads())


class TestFullDrainParity:
    @pytest.mark.parametrize("tiebreak", ["min", "max"])
    @pytest.mark.parametrize("strategy", ["overlapping", "disjoint"])
    def test_bit_identical_results(self, tiebreak, strategy):
        inst = _workload(strategy=strategy)
        (sa, ra), (sr, rr) = _pair(inst, tiebreak=tiebreak)
        assert sa.backend_used == "array", sa.fallback_reason
        assert sa.fallback_reason is None
        assert sr.backend_used == "reference"
        _assert_identical(ra, rr)
        # engine state is synced, not just the result
        assert sa.now == sr.now
        assert sa.starts == sr.starts
        assert sa.completions == sr.completions
        assert sa.assigned_machine == sr.assigned_machine
        assert sa.waiting_profile() == sr.waiting_profile()
        assert sa.scheduler.completions == sr.scheduler.completions
        assert sa.scheduler.task_counts == sr.scheduler.task_counts
        assert sa.scheduler.n_dispatched == sr.scheduler.n_dispatched

    def test_result_recomputed_after_sync_matches(self):
        """result() re-derived from synced state (reference code path)
        must agree with the array-built result."""
        inst = _workload(rng=3)
        sim = Simulator(EFT(inst.m, tiebreak="min"), backend="auto")
        sim.add_instance(inst)
        first = sim.run()
        assert sim.backend_used == "array"
        again = sim.result()
        for f in RESULT_FIELDS:
            assert getattr(first, f) == getattr(again, f), f
        assert first.schedule.same_placements(again.schedule, tol=0.0)


def _feed(sim, inst, shape):
    """Feed ``inst`` to ``sim`` as one of three shapes: the Instance
    itself, its tasks out of release order, or an Instance of the first
    half followed by the rest as tasks."""
    tasks = list(inst.tasks)
    if shape == "instance":
        sim.add_instance(inst)
    elif shape == "shuffled":
        sim.add_tasks(tasks[1::2] + tasks[::2][::-1])
    else:
        half = len(tasks) // 2
        sim.add_instance(Instance(m=inst.m, tasks=tuple(tasks[:half])))
        sim.add_tasks(tasks[half:][::-1])


class TestDeferredBooks:
    """The array run keeps the simulator's books and their tids as
    columns until the first read, which must then see exactly the
    reference books; the scheduler books the drain at once."""

    @pytest.mark.parametrize("shape", ["instance", "shuffled", "instance+tasks"])
    @pytest.mark.parametrize("first", ["starts", "completions", "assigned_machine"])
    def test_first_read_equals_reference(self, shape, first):
        inst = _workload(rng=11, n=200)
        runs = []
        for backend in ("auto", "reference"):
            sim = Simulator(EFT(inst.m), backend=backend)
            _feed(sim, inst, shape)
            runs.append((sim, sim.run()))
        (sa, ra), (sr, rr) = runs
        assert sa.backend_used == "array", sa.fallback_reason
        assert sa._lazy_books is not None
        # the scheduler's records are the array run's lists, not copies
        assert sa.scheduler._machines is sa._lazy_books[1]
        assert sa.scheduler._starts is sa._lazy_books[2]
        # only a feed of one whole Instance is that Instance's rows
        assert (ra.schedule.instance is inst) == (shape == "instance")
        assert getattr(sa, first) == getattr(sr, first)
        assert sa._lazy_books is None
        assert sa.starts == sr.starts
        assert sa.completions == sr.completions
        assert sa.assigned_machine == sr.assigned_machine
        assert sa.scheduler.schedule().same_placements(sr.scheduler.schedule(), tol=0.0)
        order = [t.tid for t in ra.schedule.instance]
        assert order == [t.tid for t in rr.schedule.instance]
        assert ra.schedule.machines_array().tolist() == [rr.schedule.machine_of(t) for t in order]
        assert ra.schedule.starts_array().tolist() == [rr.schedule.start_of(t) for t in order]
        assert np.array_equal(ra.schedule.flows(), rr.schedule.flows())
        _assert_identical(ra, rr)

    def test_result_only_run_builds_no_books(self):
        """A run whose caller reads only the result never builds the
        per-task dicts or the tid lists."""
        inst = _workload(rng=2)
        sim = Simulator(EFT(inst.m), backend="auto")
        sim.add_instance(inst)
        res = sim.run()
        assert res.n_completed == inst.n and res.max_flow > 0
        # the deferred books hold the tasks, not a tid list
        assert isinstance(sim._lazy_books[0][0], Task)
        assert not sim._starts and not sim._completions and not sim._assigned_machine
        # the scheduler's book holds only what the last release left open
        tasks, _, _, ends = sim._lazy_books
        last = tasks[-1].release
        assert set(sim.scheduler._live) == {t.tid for t, e in zip(tasks, ends) if e > last}

    @pytest.mark.parametrize("shape", ["instance", "shuffled", "instance+tasks"])
    def test_book_equals_reference(self, shape):
        """The scheduler's book holds what the reference run's holds:
        an equal snapshot, equal outstanding counts at any query time,
        and equal horizons after a retraction."""
        inst = _workload(rng=13, n=200, load=0.95)
        sims = []
        for backend in ("auto", "reference"):
            sim = Simulator(EFT(inst.m), backend=backend)
            _feed(sim, inst, shape)
            sim.run()
            sims.append(sim)
        sa, sr = sims
        assert sa.backend_used == "array", sa.fallback_reason
        assert sa.scheduler.book_state() == sr.scheduler.book_state()
        last = inst.tasks[-1].release
        live = sr.scheduler.outstanding(last)
        assert sum(live.values()) > 1  # a backlog outlives the last release
        for t in (0.0, last / 2, last):
            assert sa.scheduler.outstanding(t) == sr.scheduler.outstanding(t)
        # retract the entry that finishes last (its machine's tail), in both
        tail = max(sa.scheduler._live, key=lambda tid: sa.scheduler._live[tid][2])
        machine, start, _ = sa.scheduler._live[tail]
        for sim in sims:
            sim.scheduler.retract(tail, last)
        assert sa.scheduler.completions[machine] == start
        assert sa.scheduler.completions == sr.scheduler.completions
        for t in (last, last + 0.5, last + 1.0, sa.now):
            assert sa.scheduler.outstanding(t) == sr.scheduler.outstanding(t)


@st.composite
def _drains(draw):
    """A workload with same-instant releases, a tie-break, a feed shape
    and a few tasks submitted after the drain."""
    m = draw(st.integers(1, 5))
    sets = st.frozensets(st.integers(1, m), min_size=1)
    procs = st.sampled_from([0.3, 0.7, 1.0, 2.5, 4.0])
    tasks = [
        Task(tid=i, release=float(draw(st.integers(0, 12))), proc=draw(procs), machines=draw(sets))
        for i in range(draw(st.integers(2, 30)))
    ]
    last = max(t.release for t in tasks)
    extra = sorted(draw(st.lists(st.integers(0, 6), min_size=1, max_size=4)))
    later = [
        Task(tid=100 + i, release=last + d, proc=draw(procs), machines=draw(sets))
        for i, d in enumerate(extra)
    ]
    shape = draw(st.sampled_from(["instance", "shuffled", "instance+tasks"]))
    return Instance(m=m, tasks=tuple(tasks)), later, draw(st.sampled_from(["min", "max"])), shape


@given(drain=_drains())
@settings(max_examples=examples(60), deadline=None)
def test_array_drain_books_like_reference(drain):
    """An array drain leaves the scheduler exactly as the reference
    run's task-by-task submits do: the same snapshot, records and
    counts, and the same answers to every later submit, retraction and
    outstanding query."""
    inst, later, tiebreak, shape = drain
    runs = []
    for backend in ("auto", "reference"):
        sim = Simulator(EFT(inst.m, tiebreak=tiebreak), backend=backend)
        _feed(sim, inst, shape)
        sim.run()
        runs.append(sim)
    assert runs[0].backend_used == "array", runs[0].fallback_reason
    a, r = (sim.scheduler for sim in runs)
    assert a.book_state() == r.book_state()
    assert a.schedule().same_placements(r.schedule(), tol=0.0)
    assert (a.n_dispatched, a.fresh) == (r.n_dispatched, r.fresh)
    for task in later:
        da, dr = a.submit(task), r.submit(task)
        assert (da.machine, da.start, da.tie_set) == (dr.machine, dr.start, dr.tie_set)
    now = later[-1].release
    # retract the live entry that ends last: its machine's tail
    tail = max(r.book_state()["book"], key=lambda entry: (entry[3], entry[0]))[0]
    for s in (a, r):
        s.retract(tail, now)
    assert a.book_state() == r.book_state()
    for t in (now, now + 0.5, now + 2.0, now + 100.0):
        assert a.outstanding(t) == r.outstanding(t)
    assert a.schedule().same_placements(r.schedule(), tol=0.0)


class TestTruncationParity:
    @pytest.mark.parametrize("until_frac", [0.0, 0.2, 0.5, 0.9, 1.5])
    def test_truncated_and_resumed_runs(self, until_frac):
        inst = _workload(rng=7)
        horizon = max(t.release for t in inst) + sum(t.proc for t in inst) / inst.m
        until = until_frac * horizon
        (sa, ra), (sr, rr) = _pair(inst, until=until)
        _assert_identical(ra, rr)
        assert sa.now == sr.now
        assert sa.waiting_profile() == sr.waiting_profile()
        assert sa.uncompleted_on([1, 2, 3]) == sr.uncompleted_on([1, 2, 3])
        # resuming after the cutoff continues seamlessly on both
        fa, fr = sa.run(), sr.run()
        _assert_identical(fa, fr)

    def test_cutoff_exactly_on_event_times(self):
        # unit tasks at integer times on one machine: the cutoff falls
        # exactly on release/complete instants (pinned-order boundary)
        tasks = [Task(tid=t, release=float(t // 2), proc=1.0) for t in range(8)]
        inst = Instance(m=2, tasks=tuple(tasks))
        for until in (0.0, 1.0, 2.0, 3.0):
            (sa, ra), (sr, rr) = _pair(inst, until=until)
            _assert_identical(ra, rr)

    def test_negative_and_pre_release_cutoffs_fall_back(self):
        inst = _workload(rng=13)
        sim = Simulator(EFT(inst.m), backend="auto")
        sim.add_instance(inst)
        r = sim.run(until=-1.0)
        assert sim.backend_used == "reference"
        assert "cutoff" in sim.fallback_reason
        assert r.n_completed == 0
        # resuming after a cutoff that released nothing drains exactly
        _assert_identical(sim.run(), _pair(inst)[1][1])


class TestShuffledReleases:
    """Satellite: out-of-release-order feeds must be handled exactly as
    the reference engine handles them (the event queue re-sorts)."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 40),
        m=st.integers(1, 5),
        tiebreak=st.sampled_from(["min", "max"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_shuffled_feed_parity(self, seed, n, m, tiebreak):
        rng = np.random.default_rng(seed)
        tasks = [
            Task(
                tid=i,
                release=float(rng.integers(0, 10)),
                proc=float(rng.uniform(0.2, 3.0)),
                machines=frozenset(
                    int(j) for j in rng.choice(m, size=rng.integers(1, m + 1), replace=False) + 1
                ),
            )
            for i in range(n)
        ]
        order = list(range(n))
        rng.shuffle(order)
        shuffled = [tasks[i] for i in order]
        (sa, ra), (sr, rr) = _pair(
            Instance(m=m, tasks=tuple(tasks)), tiebreak=tiebreak, feed=shuffled
        )
        assert sa.backend_used == "array", sa.fallback_reason
        _assert_identical(ra, rr)
        # Feed order only matters through equal-time event ties (the
        # queue is FIFO at an instant, on both backends); with distinct
        # releases the shuffled feed must agree with the sorted feed.
        if len({t.release for t in tasks}) == n:
            sim = Simulator(EFT(m, tiebreak=tiebreak), backend="reference")
            sim.add_instance(Instance(m=m, tasks=tuple(tasks)))
            _assert_identical(ra, sim.run())


@st.composite
def _feed_scenarios(draw):
    """Several out-of-order ``add_tasks`` batches, ``at()`` callbacks
    injecting tasks at their own instant, and (sometimes) a fault
    schedule."""
    m = draw(st.integers(1, 4))
    tids = iter(range(10_000))

    def batch(lo, hi, max_size):
        return [
            Task(
                tid=next(tids),
                release=float(draw(st.integers(lo, hi))),
                proc=draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])),
                machines=frozenset(draw(st.sets(st.integers(1, m), min_size=1))),
            )
            for _ in range(draw(st.integers(1, max_size)))
        ]

    callbacks = []
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, 8))
        callbacks.append((float(at), batch(at, at, 3)))
    outages = []
    if draw(st.booleans()):
        for j in draw(st.sets(st.integers(1, m), min_size=1)):
            start = draw(st.integers(0, 6))
            outages.append((j, float(start), float(start + draw(st.integers(1, 4)))))
    return {
        "m": m,
        "tiebreak": draw(st.sampled_from(["min", "max"])),
        "batches": [batch(0, 6, 8) for _ in range(draw(st.integers(1, 3)))],
        "callbacks": callbacks,
        "outages": outages,
    }


def _play(scn, backend):
    """Feed every batch, then drain; returns the simulator and its
    result."""
    from repro.faults import FaultSchedule

    faults = FaultSchedule.build(scn["outages"]) if scn["outages"] else None
    sim = Simulator(EFT(scn["m"], tiebreak=scn["tiebreak"]), faults=faults, backend=backend)
    for tasks in scn["batches"]:
        sim.add_tasks(tasks)
    for at, injected in scn["callbacks"]:
        sim.at(at, lambda s, injected=injected: s.add_tasks(injected))
    return sim, sim.run()


class TestReleaseFeedParity:
    """Tasks fed before a run wait in the release feed; the array path
    consumes it, the reference loop turns it into RELEASE events.  Both
    must behave as if every release had been pushed when it was fed."""

    @given(scn=_feed_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_interleaved_feeds_match_reference(self, scn):
        sa, ra = _play(scn, "auto")
        sr, rr = _play(scn, "reference")
        _assert_identical(ra, rr)
        if not scn["callbacks"] and not scn["outages"]:
            assert sa.backend_used == "array", sa.fallback_reason
        assert sa.starts == sr.starts
        assert sa.completions == sr.completions
        assert sa.assigned_machine == sr.assigned_machine
        assert sa.now == sr.now

    @pytest.mark.parametrize(
        "pending, reason",
        [
            ((), "no pending work"),
            (("observe",), "non-release events pending (OBSERVE)"),
            (("down",), "non-release events pending (MACHINE_DOWN)"),
            (("observe", "down"), "non-release events pending (MACHINE_DOWN, OBSERVE)"),
        ],
    )
    def test_fallback_reasons_unchanged(self, pending, reason):
        from repro.simulation import EventKind

        inst = _workload(rng=53, n=40)
        sim = Simulator(EFT(inst.m), backend="auto")
        if pending:
            sim.add_instance(inst)
        if "observe" in pending:
            sim.at(1.0, lambda s: None)
        if "down" in pending:
            sim.events.push(1.0, EventKind.MACHINE_DOWN, 1)
        sim.run()
        assert sim.backend_used == "reference"
        assert sim.fallback_reason == reason


class TestFallbacks:
    def test_unknown_backend_is_typed_error(self):
        with pytest.raises(UnknownBackendError, match="unknown backend"):
            Simulator(EFT(2), backend="simd")
        assert issubclass(UnknownBackendError, ValueError)

    def test_rand_tiebreak_falls_back_silently(self):
        inst = _workload(rng=17)
        sim = Simulator(EFT(inst.m, tiebreak="rand", rng=1), backend="auto")
        sim.add_instance(inst)
        ra = sim.run()
        assert sim.backend_used == "reference"
        assert "tie-break" in sim.fallback_reason
        ref = Simulator(EFT(inst.m, tiebreak="rand", rng=1), backend="reference")
        ref.add_instance(inst)
        _assert_identical(ra, ref.run())

    def test_observer_falls_back_and_snapshots_stay_byte_identical(self):
        from repro.obs import SimRecorder
        from repro.obs.snapshot import metrics_snapshot, metrics_to_json

        inst = _workload(rng=19, n=150)
        texts = {}
        for backend in ("auto", "reference"):
            obs = SimRecorder()
            sim = Simulator(EFT(inst.m, tiebreak="min"), obs=obs, backend=backend)
            sim.add_instance(inst)
            sim.run()
            assert sim.backend_used == "reference"
            texts[backend] = metrics_to_json(metrics_snapshot(obs.registry))
        assert "observer" in Simulator(
            EFT(inst.m), obs=SimRecorder(), backend="auto"
        )._array_fallback_reason(None)
        assert texts["auto"] == texts["reference"]

    def test_scheduler_used_through_place_falls_back(self):
        """``place`` records no placement, but the freshness rule
        reads the horizons it moved."""
        inst = _workload(rng=29, n=40)
        eft = EFT(inst.m)
        eft.place(inst.tasks[0])
        assert eft.n_dispatched == 0 and not eft.fresh
        sim = Simulator(eft, backend="auto")
        sim.add_instance(inst)
        assert sim._array_fallback_reason(None) == "scheduler already has dispatches"

    def test_fault_schedule_falls_back_but_empty_one_does_not(self):
        from repro.faults import FaultSchedule

        inst = _workload(rng=23, n=150)
        faulted = Simulator(
            EFT(inst.m), faults=FaultSchedule.build([(1, 5.0, 10.0)]), backend="auto"
        )
        faulted.add_instance(inst)
        ra = faulted.run()
        assert faulted.backend_used == "reference"
        assert "fault" in faulted.fallback_reason
        ref = Simulator(
            EFT(inst.m), faults=FaultSchedule.build([(1, 5.0, 10.0)]), backend="reference"
        )
        ref.add_instance(inst)
        rr = ref.run()
        for f in RESULT_FIELDS:
            assert getattr(ra, f) == getattr(rr, f), f
        # the zero-fault identity: an *empty* schedule is expressible
        empty = Simulator(EFT(inst.m), faults=FaultSchedule.build([]), backend="auto")
        empty.add_instance(inst)
        re_ = empty.run()
        assert empty.backend_used == "array", empty.fallback_reason
        plain = Simulator(EFT(inst.m), backend="reference")
        plain.add_instance(inst)
        _assert_identical(re_, plain.run())

    def test_started_simulator_falls_back(self):
        inst = _workload(rng=29, n=100)
        sim = Simulator(EFT(inst.m), backend="auto")
        sim.add_instance(inst)
        sim.run(until=5.0)
        assert sim.backend_used == "reference"
        assert sim.fallback_reason == "cutoff needs per-event work"
        sim.add_tasks([Task(tid=10_000, release=50.0, proc=1.0)])
        sim.run()
        assert sim.backend_used == "reference"
        assert "already started" in sim.fallback_reason

    def test_adversary_callback_falls_back(self):
        inst = _workload(rng=31, n=60)
        sim = Simulator(EFT(inst.m), backend="auto")
        sim.add_instance(inst)
        sim.at(1.0, lambda s: None)
        sim.run()
        assert sim.backend_used == "reference"
        assert "OBSERVE" in sim.fallback_reason


class TestZooFallback:
    """Satellite: registry policies silently take the reference loop
    (``fallback_reason == "scheduler"``), while registry-built EFT
    still fast-forwards through the array engine bit-identically."""

    @pytest.mark.parametrize("name", ["srpt-ps", "nc-setup", "speed-eft", "lor"])
    def test_non_eft_policy_records_scheduler_reason(self, name):
        from repro.schedulers import get_scheduler

        inst = _workload(rng=37, n=80)
        sim = Simulator(get_scheduler(name, inst.m), backend="auto")
        sim.add_instance(inst)
        sim.run()
        assert sim.backend_used == "reference"
        assert sim.fallback_reason == "scheduler"

    def test_eft_subclass_is_not_plain_eft(self):
        """Subclassing EFT must not sneak onto the array path — the
        eligibility check is an exact type check."""
        from repro.schedulers import SRPTPS

        inst = _workload(rng=41, n=60)
        sim = Simulator(SRPTPS(inst.m), backend="auto")
        sim.add_instance(inst)
        sim.run()
        assert sim.backend_used == "reference"
        assert sim.fallback_reason == "scheduler"

    @pytest.mark.parametrize("name", ["eft-min", "eft-max"])
    def test_registry_eft_fast_forwards_byte_identically(self, name):
        from repro.campaigns.trace import dumps, record
        from repro.schedulers import get_scheduler

        inst = _workload(rng=43)
        runs = {}
        for backend in ("auto", "reference"):
            sim = Simulator(get_scheduler(name, inst.m), backend=backend)
            sim.add_instance(inst)
            runs[backend] = (sim, sim.run())
        sa, ra = runs["auto"]
        sr, rr = runs["reference"]
        assert sa.backend_used == "array", sa.fallback_reason
        assert sr.backend_used == "reference"
        _assert_identical(ra, rr)
        # trace bytes off the synced scheduler books are equal too
        texts = {
            b: dumps(record(s.scheduler.schedule(), scheduler=name))
            for b, (s, _) in runs.items()
        }
        assert texts["auto"] == texts["reference"]


class TestDynamicWorkloads:
    @given(seed=st.integers(0, 2**31 - 1), tiebreak=st.sampled_from(["min", "max"]))
    @settings(max_examples=15, deadline=None)
    def test_parity_on_rebalance_era_generators(self, seed, tiebreak):
        from repro.simulation import FlashCrowd, HotspotShift, WorkloadSpec
        from repro.simulation.workload import bake_instance

        spec = WorkloadSpec(
            m=6,
            n=80,
            lam=3.0,
            rate_profile=FlashCrowd(base=3.0, peak=12.0, start=4.0, duration=3.0),
            popularity_profile=HotspotShift(m=6, s=1.5, shifts=((8.0, 3),)),
            k=2,
        )
        releases, homes, sizes = spec.stream(seed)
        inst = bake_instance(spec.m, spec.replication(), releases, homes, sizes, keys=homes)
        (sa, ra), (sr, rr) = _pair(inst, tiebreak=tiebreak)
        assert sa.backend_used == "array", sa.fallback_reason
        _assert_identical(ra, rr)
