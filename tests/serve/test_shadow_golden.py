"""Shadow mode vs the golden fixtures: byte-identity, not approximation.

The serving layer's core guarantee is that its dispatch decisions are
*exactly* the engine's.  These tests pin it three ways: the shadow
trace of every golden case must equal the checked-in fixture
byte-for-byte, the discrete-event simulator must produce those same
bytes, and any perturbation of the dispatcher state must be caught by
:func:`check_shadow_golden`.
"""

import pytest

from repro.campaigns.goldens import GOLDEN_CASES, golden_path
from repro.campaigns.trace import dumps, record
from repro.simulation.engine import Simulator
from tests.oracles import GoldenMismatch, check_shadow_golden, shadow_golden_trace, shadow_replay

ALL_GOLDENS = sorted(GOLDEN_CASES)


@pytest.mark.parametrize("name", ALL_GOLDENS)
def test_shadow_trace_byte_identical_to_golden(name):
    shadow = shadow_golden_trace(name)
    assert dumps(shadow) == golden_path(name).read_text()


@pytest.mark.parametrize("name", ALL_GOLDENS)
def test_check_shadow_golden_passes(name):
    trace = check_shadow_golden(name)
    assert trace.n == GOLDEN_CASES[name].make_instance().n


@pytest.mark.parametrize("name", ALL_GOLDENS)
def test_simulator_emits_the_same_bytes(name):
    """Dispatcher and engine agree not just on placements but on the
    exact canonical trace bytes."""
    case = GOLDEN_CASES[name]
    scheduler = case.make_scheduler()
    sim = Simulator(scheduler)
    sim.add_instance(case.make_instance())
    result = sim.run()
    engine_trace = record(
        result.schedule,
        scheduler=scheduler.name,
        meta={"golden": name, "description": case.description},
    )
    assert dumps(engine_trace) == dumps(shadow_golden_trace(name))


@pytest.mark.parametrize("name", ALL_GOLDENS)
def test_divergence_is_detected(name, monkeypatch):
    """A dispatcher that mis-places even one task must fail the check."""
    import tests.oracles as shadow_mod

    original = shadow_mod.shadow_replay

    def perturbed(instance, scheduler):
        router, decisions = original(instance, scheduler)
        books = router.dispatchers[0].placements
        tid = next(iter(books))
        machine, start = books[tid]
        books[tid] = (machine, start + 0.125)
        return router, decisions

    monkeypatch.setattr(shadow_mod, "shadow_replay", perturbed)
    with pytest.raises(GoldenMismatch, match="diverged"):
        check_shadow_golden(name)


def test_shadow_replay_rejects_used_scheduler():
    name = ALL_GOLDENS[0]
    case = GOLDEN_CASES[name]
    scheduler = case.make_scheduler()
    instance = case.make_instance()
    shadow_replay(instance, scheduler)
    with pytest.raises(ValueError, match="fresh scheduler"):
        shadow_replay(instance, scheduler)


def test_shadow_replay_rejects_mismatched_m():
    name = ALL_GOLDENS[0]
    case = GOLDEN_CASES[name]
    other = [GOLDEN_CASES[n] for n in ALL_GOLDENS if n != name][0]
    with pytest.raises(ValueError, match="m="):
        shadow_replay(case.make_instance(), other.make_scheduler())
