"""End-to-end rebalance harness: the tentpole guarantees.

* adaptive beats both static placements on tail flow under a hotspot
  shift;
* the no-trigger adaptive path is byte-identical to the static run
  (assignments AND metric snapshots — rebalancing that never fires
  leaves no trace);
* a recorded trace replays byte-identically from its own header.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.faults import FaultSchedule
from repro.rebalance import RebalanceConfig, replay_rebalance, run_rebalance
from repro.rebalance.harness import default_spec
from repro.simulation.workload import WorkloadSpec

CONFIG = RebalanceConfig(cadence=25.0, window=50.0, headroom=0.75, warmup=2.0, max_k=5)


def _spec(n=1500, **kw):
    params = {"m": 12, "n": n, "k": 2, "s": 1.5}
    params.update(kw)
    return default_spec(params)


class TestAdaptiveWins:
    def test_beats_both_statics_on_p99(self):
        spec = _spec()
        static_over = run_rebalance(spec, policy="static", config=CONFIG, seed=0)
        static_dis = run_rebalance(
            replace(spec, strategy="disjoint"), policy="static", config=CONFIG, seed=0
        )
        adaptive = run_rebalance(spec, policy="adaptive", config=CONFIG, seed=0)
        assert adaptive.n_rebalances > 0
        assert adaptive.final_version == adaptive.n_rebalances
        assert adaptive.flow["p99"] < static_over.flow["p99"]
        assert adaptive.flow["p99"] < static_dis.flow["p99"]

    def test_every_change_is_a_versioned_event(self):
        result = run_rebalance(_spec(), policy="adaptive", config=CONFIG, seed=0)
        triggered = [d for d in result.trace.decisions if d.triggered]
        assert len(triggered) == result.n_rebalances
        assert [d.version for d in triggered] == list(range(1, len(triggered) + 1))
        for d in triggered:
            assert d.changes  # a trigger always states what moved


class TestNoTriggerIdentity:
    def test_digest_matches_static(self):
        """An adaptive run whose threshold never fires takes the exact
        decisions of the static run — byte-identical assignments."""
        spec = _spec(n=800)
        never = replace(CONFIG, headroom=1e9)
        static = run_rebalance(spec, policy="static", config=never, seed=0)
        adaptive = run_rebalance(spec, policy="adaptive", config=never, seed=0)
        assert adaptive.n_rebalances == 0
        assert adaptive.digest == static.digest
        assert adaptive.flow == static.flow

    def test_metrics_carry_no_rebalance_keys(self):
        spec = _spec(n=800)
        never = replace(CONFIG, headroom=1e9)
        adaptive = run_rebalance(spec, policy="adaptive", config=never, seed=0)
        for section in ("counters", "gauges"):
            assert not [k for k in adaptive.metrics[section] if "rebalance" in k]
            assert "placement_version" not in adaptive.metrics[section]
        # ...while a triggering run does roll its counters in.
        hot = run_rebalance(spec, policy="adaptive", config=CONFIG, seed=0)
        if hot.n_rebalances:
            assert hot.metrics["counters"]["rebalance_applied_total"] == hot.n_rebalances


class TestReplay:
    def test_byte_identical(self):
        result = run_rebalance(_spec(n=800), policy="adaptive", config=CONFIG, seed=1)
        fresh, identical = replay_rebalance(result.trace)
        assert identical
        assert fresh.digest == result.digest

    def test_byte_identical_with_faults(self):
        faults = FaultSchedule.build([(2, 30.0, 60.0), (7, 90.0, 120.0)])
        result = run_rebalance(
            _spec(n=800), policy="adaptive", config=CONFIG, seed=1, faults=faults
        )
        assert result.n == 800
        fresh, identical = replay_rebalance(result.trace)
        assert identical
        assert fresh.digest == result.digest


class TestFaults:
    def test_dead_machine_receives_nothing_while_down(self):
        spec = _spec(n=600)
        faults = FaultSchedule.build([(1, 0.0, 1e9)])  # machine 1 never up
        result = run_rebalance(spec, policy="adaptive", config=CONFIG, seed=0, faults=faults)
        assert result.n == 600
        # Flow percentiles are finite and the run placed every task.
        assert math.isfinite(result.flow["max"])

    def test_drain_moves_unstarted_work(self):
        spec = _spec(n=600)
        horizon = 600 / spec.lam
        # Kill the pre-shift hot machine: its queue holds unstarted
        # backlog, which must drain through the engine's failure rule.
        faults = FaultSchedule.build([(1, 0.2 * horizon, 0.6 * horizon)])
        with_faults = run_rebalance(spec, policy="static", config=CONFIG, seed=0, faults=faults)
        without = run_rebalance(spec, policy="static", config=CONFIG, seed=0)
        assert with_faults.n_requeued > 0
        assert with_faults.digest != without.digest


class TestHeaderFormat:
    #: the ``spec`` header of ``repro rebalance --m 12 --n 1500``, as every
    #: recorded trace carries it; old traces must keep loading
    SPEC = {
        "k": 2,
        "m": 12,
        "n": 1500,
        "popularity": {
            "kind": "hotspot-shift",
            "m": 12,
            "order": None,
            "s": 1.5,
            "shifts": [[113.63636363636363, 6]],
        },
        "proc": 1.0,
        "rate": {"kind": "constant", "lam": 6.6000000000000005},
        "size_dist": "unit",
        "strategy": "overlapping",
    }

    def test_header_spec_round_trips(self):
        assert WorkloadSpec.from_dict(self.SPEC).to_dict() == self.SPEC

    def test_header_spec_is_what_the_cli_writes(self):
        spec = default_spec(
            {"m": 12, "n": 1500, "k": 2, "s": 1.5, "strategy": "overlapping", "proc": 1.0}
        )
        assert spec.to_dict() == self.SPEC
        for a, b in zip(WorkloadSpec.from_dict(self.SPEC).stream(0), spec.stream(0)):
            assert np.array_equal(a, b)


class TestValidation:
    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            run_rebalance(_spec(n=10), policy="chaotic")
