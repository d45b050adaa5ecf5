"""Unit tests for the key-granularity store model."""

import numpy as np
import pytest

from repro.core import eft_schedule
from repro.simulation import HashRingPlacement, KeyValueStore


class TestPlacements:
    def test_ring_deterministic(self):
        p = HashRingPlacement(4, virtual_nodes=16)
        homes = [p.home(k) for k in range(100)]
        assert homes == [p.home(k) for k in range(100)]

    def test_ring_in_range(self):
        p = HashRingPlacement(5)
        assert all(1 <= p.home(k) <= 5 for k in range(500))

    def test_ring_roughly_balanced(self):
        """With enough virtual nodes each machine owns a fair share."""
        p = HashRingPlacement(4, virtual_nodes=256)
        homes = np.array([p.home(k) for k in range(8000)])
        freq = np.bincount(homes, minlength=5)[1:] / 8000
        assert freq.min() > 0.1  # nobody starves

    def test_ring_salt_changes_layout(self):
        a = HashRingPlacement(4, salt="a")
        b = HashRingPlacement(4, salt="b")
        assert [a.home(k) for k in range(50)] != [b.home(k) for k in range(50)]


class TestKeyValueStore:
    def test_build_validates(self):
        with pytest.raises(ValueError, match="replication strategy"):
            KeyValueStore.build(4, 100, strategy="bogus")
        with pytest.raises(ValueError, match="replication factor"):
            KeyValueStore.build(4, 100, k=5)

    def test_machine_popularity_aggregates_keys(self):
        """Induced P(E_j) = sum of key weights homed on M_j."""
        store = KeyValueStore.build(4, 50, k=2, key_zipf_s=1.0)
        pop = store.machine_popularity()
        homes = store.homes()
        expected = np.zeros(4)
        for key in range(50):
            expected[homes[key] - 1] += store.key_weights[key]
        assert np.allclose(pop, expected)
        assert pop.sum() == pytest.approx(1.0)

    def test_replica_set_uses_strategy(self):
        store = KeyValueStore.build(6, 10, k=3, strategy="overlapping")
        for key in range(10):
            home = store.placement.home(key)
            assert store.replica_set(key) == store.strategy.replicas(home)
            assert home in store.replica_set(key)
            assert len(store.replica_set(key)) == 3

    def test_request_stream_schedulable(self):
        store = KeyValueStore.build(6, 200, k=3, strategy="overlapping", key_zipf_s=0.8)
        inst = store.request_stream(lam=3.0, n=300, rng=0)
        assert inst.n == 300
        sched = eft_schedule(inst, tiebreak="min")
        sched.validate()

    def test_request_stream_keys_recorded(self):
        store = KeyValueStore.build(4, 20, k=2)
        inst = store.request_stream(lam=1.0, n=50, rng=1)
        for t in inst:
            assert t.key is not None
            assert t.machines == store.replica_set(t.key)

    def test_uniform_keys_default(self):
        store = KeyValueStore.build(4, 10)
        assert np.allclose(store.key_weights, 0.1)

    def test_zipf_keys_skewed(self):
        store = KeyValueStore.build(4, 10, key_zipf_s=2.0)
        assert store.key_weights[0] > store.key_weights[-1]
