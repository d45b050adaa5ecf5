"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.core import Instance, Task


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def make_instance(m, releases, procs=1.0, machine_sets=None) -> Instance:
    """Shorthand instance builder used across test modules."""
    return Instance.build(m, releases=releases, procs=procs, machine_sets=machine_sets)


# -- hypothesis profiles ------------------------------------------------------
# ``REPRO_HYPOTHESIS_PROFILE=long`` loads the long-run profile: it only
# raises ``max_examples``, for the CI step that hunts float-edge and
# same-instant cases in a few chosen tests.  Unset, the default profile
# runs.
settings.register_profile("long", max_examples=2_000)
PROFILE = os.environ.get("REPRO_HYPOTHESIS_PROFILE", "default")
settings.load_profile(PROFILE)


def examples(n: int) -> int:
    """``max_examples`` for a test that runs ``n`` by default: an
    explicit count overrides any profile, so the long profile raises it
    here (never lowers it)."""
    return max(n, settings.default.max_examples) if PROFILE != "default" else n


# -- hypothesis strategies ----------------------------------------------------

@st.composite
def unrestricted_instances(
    draw,
    max_m: int = 6,
    max_n: int = 25,
    unit: bool = False,
    integral_releases: bool = False,
):
    """Random instances of ``P | online-r_i | Fmax`` (no restrictions)."""
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    if integral_releases:
        releases = draw(
            st.lists(st.integers(0, 12), min_size=n, max_size=n)
        )
        releases = [float(r) for r in releases]
    else:
        releases = draw(
            st.lists(
                st.floats(0, 20, allow_nan=False, allow_infinity=False),
                min_size=n,
                max_size=n,
            )
        )
    if unit:
        procs = [1.0] * n
    else:
        procs = draw(
            st.lists(
                st.floats(0.1, 5, allow_nan=False, allow_infinity=False),
                min_size=n,
                max_size=n,
            )
        )
    tasks = tuple(
        Task(tid=i, release=releases[i], proc=procs[i]) for i in range(n)
    )
    return Instance(m=m, tasks=tasks)


@st.composite
def restricted_unit_instances(draw, max_m: int = 6, max_n: int = 18):
    """Random unit instances with integral releases and arbitrary
    non-empty processing sets (exact OPT computable)."""
    m = draw(st.integers(2, max_m))
    n = draw(st.integers(1, max_n))
    tasks = []
    for i in range(n):
        release = float(draw(st.integers(0, 8)))
        subset = draw(
            st.sets(st.integers(1, m), min_size=1, max_size=m)
        )
        tasks.append(Task(tid=i, release=release, proc=1.0, machines=frozenset(subset)))
    return Instance(m=m, tasks=tuple(tasks))


@st.composite
def faulted_streams(draw, max_m: int = 5, max_n: int = 30):
    """A random stream under machine outages: ``(instance, faults,
    fault_policy)``.  Tasks carry optional processing sets, so runs
    re-place, park and unpark."""
    from repro.faults import FaultSchedule

    m = draw(st.integers(2, max_m))
    n = draw(st.integers(1, max_n))
    times = st.floats(0, 20, allow_nan=False, allow_infinity=False)
    tasks = tuple(
        Task(
            tid=i,
            release=draw(times),
            proc=draw(st.floats(0.1, 5, allow_nan=False, allow_infinity=False)),
            machines=draw(st.none() | st.frozensets(st.integers(1, m), min_size=1)),
        )
        for i in range(n)
    )
    outages = draw(
        st.lists(
            st.tuples(st.integers(1, m), times, st.floats(0.1, 10, allow_nan=False)),
            min_size=1,
            max_size=2 * m,
        )
    )
    faults = FaultSchedule.build([(j, s, s + d) for j, s, d in outages])
    policy = draw(st.sampled_from(["restart", "resume"]))
    return Instance(m=m, tasks=tasks), faults, policy


def faulted_decisions(scheduler, stream) -> tuple[dict, dict, dict]:
    """``(assigned_machine, starts, completions)`` of one reference-loop
    run of ``scheduler`` over a :func:`faulted_streams` draw."""
    from repro.simulation import Simulator

    instance, faults, policy = stream
    sim = Simulator(scheduler, faults=faults, fault_policy=policy, backend="reference")
    sim.add_instance(instance)
    sim.run()
    return dict(sim.assigned_machine), dict(sim.starts), dict(sim.completions)
