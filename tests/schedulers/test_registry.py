"""The policy registry: resolution, canonicalisation, contract checks."""

import pytest

from repro.core import EFT
from repro.core.dispatch import ImmediateDispatchScheduler
from repro.related import GreedyRelated
from repro.schedulers import (
    NCSetup,
    SRPTPS,
    canonical_name,
    check_policy,
    get_scheduler,
    list_schedulers,
    register,
)


class TestResolution:
    def test_all_builtins_resolve(self):
        names = [info["name"] for info in list_schedulers()]
        assert {"eft-min", "eft-max", "eft-rand", "least-work", "round-robin",
                "random", "lor", "c3", "srpt-ps", "nc-setup", "speed-eft"} <= set(names)
        for name in names:
            sched = get_scheduler(name, 4, seed=1)
            assert isinstance(sched, ImmediateDispatchScheduler)
            assert sched.m == 4

    def test_zoo_classes(self):
        assert type(get_scheduler("srpt-ps", 3)) is SRPTPS
        assert type(get_scheduler("nc-setup", 3)) is NCSetup
        assert type(get_scheduler("speed-eft", 3)) is GreedyRelated
        assert type(get_scheduler("eft-min", 3)) is EFT

    def test_canonicalisation(self):
        assert canonical_name("SRPT_PS") == "srpt-ps"
        assert canonical_name("EFT-Min") == "eft-min"
        assert canonical_name("LeastWork") == "least-work"
        assert canonical_name("RoundRobin") == "round-robin"
        for spelling in ("SRPT-PS", "srpt", "Srpt_Ps"):
            assert type(get_scheduler(spelling, 2)) is SRPTPS

    def test_recorded_display_names_round_trip(self):
        """Every policy's trace-header spelling resolves back to it."""
        for info in list_schedulers():
            sched = get_scheduler(info["name"], 3, seed=0)
            again = get_scheduler(getattr(sched, "name"), 3, seed=0)
            assert type(again) is type(sched)

    def test_unknown_name_lists_registry(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            get_scheduler("fifo-deluxe", 4)

    def test_flags_reported(self):
        by_name = {info["name"]: info for info in list_schedulers()}
        assert by_name["srpt-ps"]["preemptive"] is True
        assert by_name["eft-min"]["preemptive"] is False
        assert by_name["nc-setup"]["clairvoyant"] is False
        assert by_name["lor"]["clairvoyant"] is False
        assert by_name["eft-min"]["clairvoyant"] is True


class TestRegistration:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register("eft-min", lambda m, seed: EFT(m), cls=EFT)

    def test_contract_rejects_non_dispatch_class(self):
        class NotAScheduler:
            pass

        with pytest.raises(TypeError, match="ImmediateDispatchScheduler"):
            check_policy(NotAScheduler)

    def test_contract_rejects_preemptive_without_key(self):
        class Broken(EFT):
            preemptive = True

        with pytest.raises(TypeError, match="preempt_key"):
            check_policy(Broken)

    def test_contract_accepts_zoo(self):
        for cls in (EFT, SRPTPS, NCSetup, GreedyRelated):
            check_policy(cls)


class TestMakeSchedulerDelegation:
    def test_campaigns_make_scheduler_resolves_zoo_names(self):
        from repro.campaigns.trace import make_scheduler

        assert type(make_scheduler("srpt-ps", 4)) is SRPTPS
        assert type(make_scheduler("nc-setup", 4)) is NCSetup
        assert type(make_scheduler("speed-eft", 4)) is GreedyRelated
        # legacy spellings still work
        assert type(make_scheduler("EFT-Min", 4)) is EFT
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("nope", 4)
