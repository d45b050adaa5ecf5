"""Discrete-event simulation substrate and workload models."""

from .arrivals import batch_release_times, load_to_rate, poisson_release_times, rate_to_load
from .dynamics import (
    ConstantRate,
    DiurnalRate,
    FlashCrowd,
    HotspotShift,
    PopularityProfile,
    RateProfile,
    StaticPopularity,
    ZipfDrift,
    arrival_times,
    profile_from_dict,
    profile_to_dict,
)
from .engine import (
    BACKENDS,
    MachineState,
    SimulationResult,
    Simulator,
    UnknownBackendError,
)
from .events import Event, EventKind, EventQueue
from .suites import SUITES, WorkloadSuite, get_suite, suite_names
from .kvstore import HashRingPlacement, KeyValueStore
from .popularity import (
    MachinePopularity,
    generalized_harmonic,
    shuffled_case,
    uniform_case,
    worst_case,
    zipf_weights,
)
from .workload import (
    WorkloadSpec,
    generate_workload,
    popularity_for_case,
    sample_sizes,
)

__all__ = [
    "BACKENDS",
    "ConstantRate",
    "DiurnalRate",
    "Event",
    "EventKind",
    "EventQueue",
    "FlashCrowd",
    "HashRingPlacement",
    "HotspotShift",
    "KeyValueStore",
    "MachinePopularity",
    "MachineState",
    "PopularityProfile",
    "RateProfile",
    "SUITES",
    "SimulationResult",
    "Simulator",
    "StaticPopularity",
    "UnknownBackendError",
    "WorkloadSpec",
    "WorkloadSuite",
    "ZipfDrift",
    "arrival_times",
    "batch_release_times",
    "generalized_harmonic",
    "generate_workload",
    "get_suite",
    "load_to_rate",
    "sample_sizes",
    "suite_names",
    "poisson_release_times",
    "popularity_for_case",
    "profile_from_dict",
    "profile_to_dict",
    "rate_to_load",
    "shuffled_case",
    "uniform_case",
    "worst_case",
    "zipf_weights",
]
