"""Pinned generator output.

Every instance the Section 7 generators produce is pinned by the
SHA-256 of its ``Instance.to_json()``: ``generate_workload`` over every
replication strategy, size distribution and rate shape, the spec's
stream under drifting and shifting popularity profiles (baked with each
task's home as its key), and ``replicate_instance``.  A change to how instances are built must
leave every digest unchanged.

The sharing tests pin how they are built: tasks with the same home
share one set object, so a generated instance holds at most ``m``
distinct sets and costs no frozenset per task.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import tracemalloc

import pytest

from repro.core.task import Instance
from repro.psets.replication import OverlappingIntervals, replicate_instance
from repro.simulation.dynamics import DiurnalRate, HotspotShift, ZipfDrift
from repro.simulation.workload import WorkloadSpec, bake_instance, generate_workload

M, N, K, SEED = 12, 240, 3, 7
STRATEGIES = ("none", "overlapping", "disjoint")
SIZES = ("unit", "exp", "pareto", "uniform")
RATES = ("constant", "diurnal")


def _spec(strategy: str, size_dist: str, rate: str) -> WorkloadSpec:
    profile = DiurnalRate(base=0.8 * M, amplitude=0.6, period=8.0) if rate == "diurnal" else None
    return WorkloadSpec(
        m=M, n=N, lam=0.8 * M, k=K, strategy=strategy, case="shuffled", s=1.0,
        size_dist=size_dist, rate_profile=profile,
    )


def _dynamic(name: str) -> Instance:
    popularity = {
        "zipf-drift": ZipfDrift(m=M, s0=0.2, s1=1.6, t0=2.0, t1=20.0),
        "hotspot-shift": HotspotShift(m=M, s=1.2, shifts=((6.0, 4), (14.0, 5))),
    }[name]
    spec = WorkloadSpec(
        m=M, n=N, lam=0.8 * M, rate_profile=DiurnalRate(base=0.8 * M, amplitude=0.5, period=10.0),
        popularity_profile=popularity, k=K, strategy="overlapping", size_dist="exp",
    )
    releases, homes, sizes = spec.stream(SEED)
    return bake_instance(spec.m, spec.replication(), releases, homes, sizes, keys=homes)


def _replicated(name: str) -> Instance:
    pinned = generate_workload(_spec("none", "exp", "constant"), rng=SEED)
    if name == "overlapping-inferred":
        return replicate_instance(pinned, "overlapping", K)
    if name == "disjoint-inferred":
        return replicate_instance(pinned, "disjoint", 4)
    # explicit homes on an already-replicated instance
    spread = generate_workload(_spec("overlapping", "unit", "constant"), rng=SEED)
    homes = [(t.tid * 5) % M + 1 for t in spread]
    return replicate_instance(spread, OverlappingIntervals(M, 2), 2, homes=homes)


def _digest(instance: Instance) -> str:
    return hashlib.sha256(instance.to_json().encode()).hexdigest()


#: ``sha256(Instance.to_json())`` per generator cell, recorded before
#: instances shared their sets; must never move
GENERATE_DIGESTS = {
    "none/unit/constant": "e88f21ffabf6aed0ee23281e28084b2ffcaf0d1f1f5d6d599894eee57318647c",
    "none/unit/diurnal": "11f18a0154901eae6e52ab6fec79f5b1fc0f3a9f6405c5578e1cdb705318bc9e",
    "none/exp/constant": "b1bf321d6b60bb4b7ecf276d2920426f74a61e8a2938ea5815455f430faa6984",
    "none/exp/diurnal": "a86234ba01ed6a35e654a9e48dfd4f7e51f1e72eee14c99dcc488f785730fd63",
    "none/pareto/constant": "48bb19b7a841e8b9ede1791fa4d85bb57014bd4010fccbdd8a96f2ded39f91b1",
    "none/pareto/diurnal": "b28c6b20a9a28cd35b014d0cea9820f8be320ca3bbb1a038d56b19d9d8d5b8cd",
    "none/uniform/constant": "84c5ec5065a175c4a74125fc0959083ae7dd608377d6b8e6b4dce40e4b3a5dcd",
    "none/uniform/diurnal": "65599e76bc2973573d4725b02b50c768b746e885a3512b82c81fee95d2611819",
    "overlapping/unit/constant": "d5c2f4ac95c4d503568645404b7ee527a03a1a5a2cef097de3f6ae3874f059ee",
    "overlapping/unit/diurnal": "36dc42958f082a9b3f53f898db004aef2ae6cbc2ce2bede94afb21bd03ecb3be",
    "overlapping/exp/constant": "e63d48ca6208ed6d4b0a132f6737ff30d902477067181c3a0aa979f1b7689eb1",
    "overlapping/exp/diurnal": "567cf28e935e36aa793dff56d41d232c2996b1bc5d67782cbe2cb69497cbf268",
    "overlapping/pareto/constant": "7953fd182b2021a3cad5fb592d4c6d14d49e5472bc6c81b9f050131600e0574d",
    "overlapping/pareto/diurnal": "47caed7f4694276080a38d8f77e81ee64a961bed57d727d7d2e4b6308e2fd4f2",
    "overlapping/uniform/constant": "d510c8d74d6f4fed1366d07a2d22bc0419bf888a5adf323ac3608df12e065647",
    "overlapping/uniform/diurnal": "523a00d8d5ac298bb94e5db0f4912187b27e61cf7649a62d165f7e89926b286d",
    "disjoint/unit/constant": "96baab07b448f6cec733fda6bf737436954d158f3515d96af19703451f1e5d68",
    "disjoint/unit/diurnal": "055353b20fb2ca21466dcdfd0b8ba70b711935bdb999ec06fc9e00031c1707c5",
    "disjoint/exp/constant": "6693cb101c43a79abb4699227756036c719b3a3093ddad312fda99b188720acc",
    "disjoint/exp/diurnal": "02f922f3293d51748bb5a5386ee183efabefed387e6295e786ec1de4fe0072f7",
    "disjoint/pareto/constant": "918b27ddf9993f0cc5022eae3b3f2ef09906e72602600c5cc37b8d33cb8045df",
    "disjoint/pareto/diurnal": "a10e1494681335573384d0cb81a0203a5b32fb9152323999122c03aba9fba4d2",
    "disjoint/uniform/constant": "828a853969665face999a3c627a22eed450006e84cddece4709a37b5a17c6cd0",
    "disjoint/uniform/diurnal": "19badc268532355f9a3c8124fdfcffda71a6dab82be26283cbeb7310480fe4c8",
}
DYNAMIC_DIGESTS = {
    "zipf-drift": "76f2f8c54c8d4cb9726087bc7a0cd8f853153bfd9825b1fa22cceeaa78b56669",
    "hotspot-shift": "67f1d0a95fe5b7a99b52ad8eb65b562f7b6afa972fa40ef95cb330e3e6687e47",
}
#: ``overlapping-inferred`` equals ``overlapping/exp/constant``: the
#: generator's sets are ``replicate_instance`` of its unreplicated twin
REPLICATE_DIGESTS = {
    "overlapping-inferred": "e63d48ca6208ed6d4b0a132f6737ff30d902477067181c3a0aa979f1b7689eb1",
    "disjoint-inferred": "027f6b4d2502ebab3984477a6bd573e7bfff01cf1135c067ef4e754b30219c30",
    "explicit-homes": "5813a23837807e505c7c2d8ddc163890337fc0384d9d41feb399b89055976e13",
}


@pytest.mark.parametrize("cell", sorted(GENERATE_DIGESTS))
def test_generate_workload_pinned(cell):
    strategy, size_dist, rate = cell.split("/")
    assert _digest(generate_workload(_spec(strategy, size_dist, rate), rng=SEED)) == GENERATE_DIGESTS[cell]


def test_generate_grid_is_complete():
    grid = {"/".join(c) for c in itertools.product(STRATEGIES, SIZES, RATES)}
    assert set(GENERATE_DIGESTS) == grid


@pytest.mark.parametrize("name", sorted(DYNAMIC_DIGESTS))
def test_dynamic_stream_pinned(name):
    assert _digest(_dynamic(name)) == DYNAMIC_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(REPLICATE_DIGESTS))
def test_replicate_instance_pinned(name):
    assert _digest(_replicated(name)) == REPLICATE_DIGESTS[name]


def _set_ids_by_home(instance: Instance, homes) -> dict[int, set[int]]:
    out: dict[int, set[int]] = {}
    for t, h in zip(instance, homes):
        out.setdefault(h, set()).add(id(t.machines))
    return out


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_generated_instance_holds_at_most_m_sets(strategy):
    inst = generate_workload(_spec(strategy, "exp", "constant"), rng=SEED)
    assert len({id(t.machines) for t in inst}) <= M


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_same_home_shares_one_set(strategy):
    spec = WorkloadSpec(
        m=M, n=N, lam=0.8 * M, rate_profile=DiurnalRate(base=0.8 * M, amplitude=0.5, period=10.0),
        popularity_profile=HotspotShift(m=M, s=1.2, shifts=((6.0, 4),)), k=K, strategy=strategy,
    )
    releases, homes, sizes = spec.stream(SEED)
    inst = bake_instance(spec.m, spec.replication(), releases, homes, sizes)
    by_home = _set_ids_by_home(inst, homes.tolist())
    assert len(by_home) > 1
    assert all(len(ids) == 1 for ids in by_home.values())


def test_replicated_instance_shares_sets_per_home():
    src = generate_workload(_spec("none", "exp", "constant"), rng=SEED)
    homes = {t.tid: next(iter(t.machines)) for t in src}
    rep = _replicated("overlapping-inferred")
    by_home = _set_ids_by_home(rep, [homes[t.tid] for t in rep])
    assert all(len(ids) == 1 for ids in by_home.values())


#: traced bytes a 20k-task generation may retain per task.  A Task with
#: two floats and a tuple slot is ~130 B; a private 3-machine frozenset
#: per task would add ~216 B on top
RETAINED_BYTES_PER_TASK = 250


def test_generation_retains_no_set_per_task():
    spec = WorkloadSpec(m=100, n=20_000, lam=70.0, k=3, strategy="overlapping", size_dist="exp")
    generate_workload(WorkloadSpec(m=4, n=10, lam=1.0, k=2), rng=0)  # warm imports and caches
    gc.collect()
    tracemalloc.start()
    try:
        inst = generate_workload(spec, rng=1)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.n == spec.n
    assert retained / spec.n < RETAINED_BYTES_PER_TASK
