"""Dynamic workload generators: properties and degenerate reductions.

The contract of :mod:`repro.simulation.dynamics`:

* arrival streams are strictly increasing in time, with positive and
  finite service times, and identical for identical seeds;
* every profile with zero "amplitude" reduces *bit-for-bit* to the
  static generator it generalises — not just in distribution;
* specs round-trip through their dict serialisation (rebalance traces
  replay from their own bytes).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import (
    ConstantRate,
    DiurnalRate,
    FlashCrowd,
    HotspotShift,
    StaticPopularity,
    WorkloadSpec,
    ZipfDrift,
    arrival_times,
    generate_workload,
    poisson_release_times,
    profile_from_dict,
    profile_to_dict,
    worst_case,
)
from repro.simulation.workload import bake_instance

rates = st.floats(min_value=0.1, max_value=50.0, allow_nan=False)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


@st.composite
def rate_profiles(draw):
    kind = draw(st.sampled_from(["constant", "diurnal", "flash"]))
    base = draw(rates)
    if kind == "constant":
        return ConstantRate(base)
    if kind == "diurnal":
        return DiurnalRate(
            base=base,
            amplitude=draw(st.floats(min_value=0.0, max_value=1.0)),
            period=draw(st.floats(min_value=1.0, max_value=200.0)),
            phase=draw(st.floats(min_value=0.0, max_value=50.0)),
        )
    return FlashCrowd(
        base=base,
        peak=draw(rates),
        start=draw(st.floats(min_value=0.0, max_value=100.0)),
        duration=draw(st.floats(min_value=0.5, max_value=100.0)),
    )


@st.composite
def popularity_profiles(draw, m: int = 6):
    kind = draw(st.sampled_from(["static", "zipf-drift", "hotspot-shift"]))
    s = draw(st.floats(min_value=0.0, max_value=4.0))
    if kind == "static":
        return StaticPopularity(worst_case(m, s))
    if kind == "zipf-drift":
        t0 = draw(st.floats(min_value=0.0, max_value=50.0))
        return ZipfDrift(
            m=m,
            s0=s,
            s1=draw(st.floats(min_value=0.0, max_value=4.0)),
            t0=t0,
            t1=t0 + draw(st.floats(min_value=0.0, max_value=50.0)),
        )
    n_shifts = draw(st.integers(min_value=0, max_value=3))
    times = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=100.0),
                min_size=n_shifts,
                max_size=n_shifts,
            )
        )
    )
    rots = draw(
        st.lists(st.integers(min_value=0, max_value=m), min_size=n_shifts, max_size=n_shifts)
    )
    return HotspotShift(m=m, s=s, shifts=tuple(zip(times, rots)))


class TestArrivalProperties:
    @given(profile=rate_profiles(), seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_monotone_nonnegative(self, profile, seed):
        times = arrival_times(profile, 50, rng=seed)
        assert times.size == 50
        assert np.all(np.isfinite(times))
        assert times[0] >= 0.0
        assert np.all(np.diff(times) >= 0)
        # Strictly increasing in the generic case (ties only possible
        # through float rounding of the inverse, never exact for a
        # continuous-rate profile).
        assert np.all(np.diff(times) > 0) or not profile.is_constant

    @given(profile=rate_profiles(), seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_seed_determinism(self, profile, seed):
        a = arrival_times(profile, 30, rng=seed)
        b = arrival_times(profile, 30, rng=seed)
        assert np.array_equal(a, b)

    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_zero_amplitude_is_bitwise_constant(self, seed):
        """DiurnalRate(amplitude=0) is not just ~ConstantRate — the
        stream is the exact same numpy draw sequence."""
        flat = DiurnalRate(base=3.0, amplitude=0.0, period=24.0)
        assert flat.is_constant
        assert np.array_equal(
            arrival_times(flat, 40, rng=seed),
            poisson_release_times(3.0, 40, rng=seed),
        )

    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_flat_flash_crowd_is_bitwise_constant(self, seed):
        flat = FlashCrowd(base=2.0, peak=2.0, start=10.0, duration=5.0)
        assert flat.is_constant
        assert np.array_equal(
            arrival_times(flat, 40, rng=seed),
            poisson_release_times(2.0, 40, rng=seed),
        )

    def test_inversion_matches_cumulative(self):
        """Lambda(Lambda^-1(u)) == u on every profile, including the
        bisection fallback."""
        profiles = [
            ConstantRate(2.0),
            DiurnalRate(base=3.0, amplitude=0.7, period=20.0, phase=2.0),
            FlashCrowd(base=1.0, peak=9.0, start=5.0, duration=3.0),
        ]
        for profile in profiles:
            for u in (0.5, 3.0, 17.0, 123.0):
                t = profile.inverse_cumulative(u)
                assert profile.cumulative(t) == pytest.approx(u, rel=1e-9, abs=1e-7)

    def test_diurnal_modulates_density(self):
        """More arrivals land in the high-rate half of the period."""
        profile = DiurnalRate(base=5.0, amplitude=0.9, period=100.0)
        times = arrival_times(profile, 4000, rng=0)
        in_peak = np.sum((times % 100.0) < 50.0)  # sin>0 half
        assert in_peak > 0.6 * 4000

    def test_flash_crowd_bursts(self):
        profile = FlashCrowd(base=1.0, peak=50.0, start=10.0, duration=2.0)
        times = arrival_times(profile, 500, rng=0)
        burst = np.sum((times >= 10.0) & (times < 12.0))
        assert burst > 50  # ~100 expected in the window vs ~2 outside


class TestPopularityProfiles:
    @given(profile=popularity_profiles(), seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_weights_are_probability_vectors(self, profile, seed):
        for t in (0.0, 10.0, 55.0, 1000.0):
            w = profile.weights(t)
            assert w.shape == (profile.m,)
            assert np.all(w >= 0)
            assert w.sum() == pytest.approx(1.0)

    @given(profile=popularity_profiles(), seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_homes_in_range_and_deterministic(self, profile, seed):
        releases = np.linspace(0.0, 120.0, 64)
        a = profile.sample_homes(releases, np.random.default_rng(seed))
        b = profile.sample_homes(releases, np.random.default_rng(seed))
        assert np.array_equal(a, b)
        assert np.all((a >= 1) & (a <= profile.m))

    def test_static_profile_is_bitwise_machine_popularity(self):
        pop = worst_case(8, 1.2)
        releases = poisson_release_times(2.0, 100, rng=5)
        lifted = StaticPopularity(pop).sample_homes(releases, np.random.default_rng(9))
        direct = pop.sample_homes(100, np.random.default_rng(9))
        assert np.array_equal(lifted, direct)

    def test_zipf_drift_degenerates_when_flat(self):
        drift = ZipfDrift(m=6, s0=1.5, s1=1.5, t0=0.0, t1=100.0)
        assert drift.is_static
        assert np.array_equal(drift.weights(0.0), drift.weights(1e6))

    def test_zipf_drift_ramps(self):
        drift = ZipfDrift(m=6, s0=0.0, s1=3.0, t0=10.0, t1=20.0)
        assert drift.exponent(0.0) == 0.0
        assert drift.exponent(15.0) == pytest.approx(1.5)
        assert drift.exponent(100.0) == 3.0
        # Sharper exponent concentrates weight on machine 1.
        assert drift.weights(100.0)[0] > drift.weights(0.0)[0]

    def test_hotspot_shift_rotates(self):
        shift = HotspotShift(m=6, s=2.0, shifts=((10.0, 2), (20.0, 1)))
        w0 = shift.weights(0.0)
        assert np.array_equal(shift.weights(15.0), np.roll(w0, 2))
        assert np.array_equal(shift.weights(25.0), np.roll(w0, 3))
        assert shift.rotation(9.999) == 0

    def test_full_ring_rotation_is_static(self):
        assert HotspotShift(m=6, s=2.0, shifts=((10.0, 6),)).is_static
        assert not HotspotShift(m=6, s=2.0, shifts=((10.0, 5),)).is_static

    def test_segment_sampling_shifts_mass(self):
        """After the shift, homes concentrate on the rotated hot set."""
        m = 8
        shift = HotspotShift(m=m, s=3.0, shifts=((50.0, 4),))
        releases = np.linspace(0.0, 100.0, 2000, endpoint=False)
        homes = shift.sample_homes(releases, np.random.default_rng(0))
        before = homes[releases < 50.0]
        after = homes[releases >= 50.0]
        # s=3 puts ~83% of the mass on rank 1: machine 1 before, 5 after.
        assert np.mean(before == 1) > 0.5
        assert np.mean(after == 5) > 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalRate(base=1.0, amplitude=1.5, period=10.0)
        with pytest.raises(ValueError):
            FlashCrowd(base=1.0, peak=2.0, start=-1.0, duration=5.0)
        with pytest.raises(ValueError):
            ZipfDrift(m=4, s0=1.0, s1=2.0, t0=10.0, t1=5.0)
        with pytest.raises(ValueError):
            HotspotShift(m=4, s=1.0, shifts=((10.0, 1), (5.0, 1)))
        with pytest.raises(ValueError):
            HotspotShift(m=4, s=1.0, order=(0, 0, 1, 2))


class TestWorkloadSpecProfiles:
    def _spec(self, **kw):
        defaults = dict(
            m=6,
            n=200,
            lam=3.0,
            popularity_profile=HotspotShift(m=6, s=1.5, shifts=((20.0, 3),)),
            k=2,
        )
        defaults.update(kw)
        return WorkloadSpec(**defaults)

    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_stream_properties(self, seed):
        stream = self._spec().stream(seed)
        assert stream.releases.size == stream.homes.size == stream.sizes.size == 200
        assert np.all(np.diff(stream.releases) >= 0)
        assert np.all(stream.sizes > 0)
        assert np.all(np.isfinite(stream.sizes))
        assert np.all((stream.homes >= 1) & (stream.homes <= 6))

    @given(
        seed=seeds,
        strategy=st.sampled_from(["none", "overlapping", "disjoint"]),
        size_dist=st.sampled_from(["unit", "exp", "pareto", "uniform"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_fully_degenerate_spec_matches_static_generator(self, seed, strategy, size_dist):
        """A static popularity profile reproduces the ``popularity=``
        override of generate_workload task-for-task."""
        m, n, s = 6, 150, 1.3
        pop = worst_case(m, s)
        spec = WorkloadSpec(m=m, n=n, lam=2.5, k=2, strategy=strategy, size_dist=size_dist)
        classic = generate_workload(spec, rng=seed, popularity=pop)
        profiled = generate_workload(
            replace(spec, rate_profile=ConstantRate(2.5), popularity_profile=StaticPopularity(pop)),
            rng=seed,
        )
        assert profiled.n == classic.n
        for a, b in zip(profiled.tasks, classic.tasks):
            assert a.release == b.release
            assert a.proc == b.proc
            assert a.machines == b.machines

    def test_popularity_override_and_profile_rejected(self):
        with pytest.raises(ValueError, match="popularity"):
            generate_workload(self._spec(), rng=0, popularity=worst_case(6, 1.0))

    def test_stream_homes_key_the_baked_sets(self):
        spec = self._spec()
        releases, homes, sizes = spec.stream(0)
        inst = bake_instance(spec.m, spec.replication(), releases, homes, sizes, keys=homes)
        strat = spec.replication()
        for task in inst.tasks:
            assert task.key is not None
            assert task.machines == strat.replicas(int(task.key))

    def test_average_load_time_averaged(self):
        # Constant-rate pin: the old closed form survives.
        spec = self._spec(lam=3.0, proc=1.0)
        assert spec.average_load == pytest.approx(3.0 / 6.0)
        # A flash crowd raises the average rate over the window.
        crowded = self._spec(
            rate_profile=FlashCrowd(base=3.0, peak=30.0, start=0.0, duration=10.0)
        )
        assert crowded.average_load > spec.average_load

    def test_round_trip(self):
        spec = self._spec(
            rate_profile=DiurnalRate(base=4.0, amplitude=0.5, period=60.0, phase=3.0)
        )
        again = WorkloadSpec.from_dict(spec.to_dict())
        # lam is unused under a rate profile; from_dict sets it to the
        # profile's time-averaged rate
        assert again == replace(spec, lam=spec.rate_profile.mean_rate(spec.n))
        assert again.to_dict() == spec.to_dict()
        a = spec.stream(3)
        b = again.stream(3)
        assert np.array_equal(a.releases, b.releases)
        assert np.array_equal(a.homes, b.homes)
        assert np.array_equal(a.sizes, b.sizes)

    def test_constant_rate_round_trips_as_lam(self):
        spec = self._spec(lam=2.75)
        assert spec.to_dict()["rate"] == {"kind": "constant", "lam": 2.75}
        assert WorkloadSpec.from_dict(spec.to_dict()) == spec

    def test_case_spec_has_no_dict_form(self):
        with pytest.raises(ValueError, match="popularity_profile"):
            WorkloadSpec(m=6, n=10, lam=1.0, case="worst").to_dict()

    def test_mismatched_m_rejected(self):
        with pytest.raises(ValueError, match="m="):
            self._spec(m=8)

    def test_swapped_profile_kinds_rejected(self):
        doc = self._spec().to_dict()
        doc["rate"], doc["popularity"] = doc["popularity"], doc["rate"]
        with pytest.raises(ValueError):
            WorkloadSpec.from_dict(doc)


def _spec_doc(**changes):
    doc = {
        "k": 2,
        "m": 6,
        "n": 100,
        "popularity": {"kind": "hotspot-shift", "m": 6, "order": None, "s": 1.5, "shifts": [[10.0, 3]]},
        "proc": 1.0,
        "rate": {"kind": "constant", "lam": 3.0},
        "size_dist": "unit",
        "strategy": "overlapping",
    }
    for key, value in changes.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    return doc


#: (spec dict, the field name the error must carry)
MALFORMED = {
    "rate-extra-key": (_spec_doc(rate={"kind": "constant", "lam": 3.0, "bogus": 1}), "bogus"),
    "rate-missing-lam": (_spec_doc(rate={"kind": "constant"}), "lam"),
    "rate-lam-string": (_spec_doc(rate={"kind": "constant", "lam": "fast"}), "lam"),
    "static-without-weights": (_spec_doc(popularity={"kind": "static", "m": 6}), "weights"),
    "static-weights-scalar": (_spec_doc(popularity={"kind": "static", "weights": 1.0}), "weights"),
    "shift-not-a-pair": (
        _spec_doc(popularity={"kind": "hotspot-shift", "m": 6, "s": 1.5, "shifts": [[1.0]]}),
        "shifts",
    ),
    "order-not-integers": (
        _spec_doc(popularity={"kind": "zipf-drift", "m": 6, "s0": 1.0, "s1": 2.0, "t0": 0.0, "t1": 1.0, "order": ["a"]}),
        "order",
    ),
    "rate-not-an-object": (_spec_doc(rate=[3.0]), "rate"),
    "spec-unknown-field": (_spec_doc(lam=3.0), "lam"),
    "spec-missing-m": (_spec_doc(m=None), "'m'"),
    "spec-m-float": (_spec_doc(m=6.5), "'m'"),
    "spec-strategy-number": (_spec_doc(strategy=3), "strategy"),
    "spec-not-an-object": ([1, 2], "workload spec"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_spec_dict_names_the_field(name):
    doc, field = MALFORMED[name]
    with pytest.raises(ValueError, match=field):
        WorkloadSpec.from_dict(doc)


class TestProfileSerialisation:
    @given(profile=rate_profiles())
    @settings(max_examples=40, deadline=None)
    def test_rate_round_trip(self, profile):
        again = profile_from_dict(profile_to_dict(profile))
        assert again == profile

    @given(profile=popularity_profiles())
    @settings(max_examples=40, deadline=None)
    def test_popularity_round_trip(self, profile):
        again = profile_from_dict(profile_to_dict(profile))
        assert type(again) is type(profile)
        for t in (0.0, 42.0):
            assert np.allclose(again.weights(t), profile.weights(t))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown profile kind"):
            profile_from_dict({"kind": "sawtooth"})


class TestClassicSpecRateProfile:
    def test_rate_profile_feeds_generate_workload(self):
        spec = WorkloadSpec(
            m=6,
            n=100,
            lam=2.0,
            k=2,
            rate_profile=FlashCrowd(base=2.0, peak=20.0, start=5.0, duration=2.0),
        )
        inst = generate_workload(spec, rng=0)
        times = np.array([t.release for t in inst.tasks])
        burst = np.sum((times >= 5.0) & (times < 7.0))
        assert burst > 15

    def test_constant_profile_identical_to_lam(self):
        base = WorkloadSpec(m=6, n=100, lam=2.0, k=2)
        lifted = WorkloadSpec(m=6, n=100, lam=2.0, k=2, rate_profile=ConstantRate(2.0))
        a = generate_workload(base, rng=4)
        b = generate_workload(lifted, rng=4)
        for x, y in zip(a.tasks, b.tasks):
            assert x.release == y.release and x.machines == y.machines

    def test_average_load_pin(self):
        """The documented closed form lam*p/m — unchanged for constant
        rates (regression pin for the time-averaged fix)."""
        assert WorkloadSpec(m=10, n=50, lam=5.0).average_load == pytest.approx(0.5)
        assert WorkloadSpec(
            m=10, n=50, lam=5.0, rate_profile=ConstantRate(5.0)
        ).average_load == pytest.approx(0.5)
