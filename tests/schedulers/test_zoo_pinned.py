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
    "c3": "265e206df442451e9bb4175a829017ea4ae18ac68cfe6f9617a2060ad439255a",
    "eft-max": "36b8210e06feb3c8a24c304cc8fa5851dcba4deeb1af954e057ce6c53da5b31f",
    "eft-min": "1e23d4c3536a7759fe3aac0a78aa3f94e865174d0dd2b89f6fcb1ddfe755be8a",
    "eft-rand": "ccb8ea910b88d31ac8241537d6403fc683d054107b582959d36fc42bcd344a9a",
    "least-work": "d2072d4d7ca95159b563bcf5d5ea5b02e7b9d1deac0c41fcc0c3c2c80c28b935",
    "lor": "8ab091c82048f80b9dd6d61914d1eb53bf81cf184e1e1a6cf54ed4ce03b664b6",
    "nc-setup": "ef6c472110e3e16d7063f492e2cac363e82b68df216d9621d50cbcc7d715784b",
    "random": "d45082642de59f30ee87426742640bc3d97bd3b48781797d44c5b6006999d99a",
    "round-robin": "2dad7f6b2c2e59e97a8f4dc7cc24cdbe270507cc1e4efad283655853529ddfb2",
    "speed-eft": "34a4d79d772bdc3310374b6266d745d7eb986b0c68551f50690e8c52fa5aab8b",
    "srpt-ps": "d2d824511c055e399938fe6bdec958e498f98bbf671325298c7a0079a368cd38",
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
