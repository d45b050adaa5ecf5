"""Pinned zoo decisions: every registry policy through ``Simulator`` on
one small seeded faulted instance, checked against literal digests.

``make zoo-smoke`` compares two runs of the same code; this test pins
the decisions themselves, so a rewrite of the event loop, the event
queue or a policy's data structures cannot silently change where a task
lands or when it starts and completes.  A deliberate decision change
updates the literals below in the same commit, with the reason.
"""

import hashlib

import pytest

from repro.faults import chaos_schedule
from repro.schedulers import get_scheduler, list_schedulers
from repro.simulation import Simulator
from repro.simulation.workload import WorkloadSpec, generate_workload

M = 12

#: SHA-256 over ``tid:machine:start:completion;`` of every task
PINNED = {
    "c3": "edf287255f5198439f78cf7bcee9682576999c4cc02251e512578fa73ea16ac2",
    "eft-max": "97e15497f6df35ff780259de6bc33f10474bb9b3ac259085fbc68094a59ff9e2",
    "eft-min": "286d580838e7e40976671a195d9be153b70dbe829f1397d1a3d2b4fa74efe67f",
    "eft-rand": "5d3303d90a4a02182e32e2609a1c19a022f7bb90a88399f342fecd7f41dab7be",
    "least-work": "78af4a678b366c03ea6d111d5a5e9df2dfc7657bbc52159b7c02f06dc4ba9731",
    "lor": "6a17f45254466b3272091132b60270d6452afcfa304ffb00ede923f519c5f702",
    "nc-setup": "3e249ea0fe800b7b97c5c6ed54e33ee5fcac15e6324abe0129fbb3a4b3cb0d28",
    "random": "d45082642de59f30ee87426742640bc3d97bd3b48781797d44c5b6006999d99a",
    "round-robin": "2dad7f6b2c2e59e97a8f4dc7cc24cdbe270507cc1e4efad283655853529ddfb2",
    "speed-eft": "72436c1765f643dc7ac8ecdb0f7ad23cf0ea08f12356ccec0ad4ff99689b2e95",
    "srpt-ps": "7153d46cd94960ffb7436bfef790995887b3856fe800af962e5e628f43a32927",
}


@pytest.fixture(scope="module")
def faulted_instance():
    inst = generate_workload(
        WorkloadSpec(m=M, n=600, lam=0.9 * M, k=3, size_dist="exp"), rng=7
    )
    faults = chaos_schedule(
        M, inst.tasks[-1].release + 1.0, mtbf=8.0, mttr=2.0, seed=7, machines=[1, 2, 3]
    )
    return inst, faults


def test_every_registered_policy_is_pinned():
    assert sorted(PINNED) == sorted(info["name"] for info in list_schedulers())


@pytest.mark.parametrize("policy", sorted(PINNED))
def test_zoo_decisions_match_pinned_digest(policy, faulted_instance):
    inst, faults = faulted_instance
    sim = Simulator(get_scheduler(policy, M, seed=7), faults=faults)
    sim.add_instance(inst)
    result = sim.run()
    assert result.n_completed == len(inst)
    assert sim.n_requeued > 0  # the failure path ran
    h = hashlib.sha256()
    for t in inst:
        h.update(
            f"{t.tid}:{sim.assigned_machine.get(t.tid)}:{sim.starts.get(t.tid)!r}:"
            f"{sim.completions.get(t.tid)!r};".encode()
        )
    assert h.hexdigest() == PINNED[policy]
