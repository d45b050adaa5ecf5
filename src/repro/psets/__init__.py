"""Processing-set structures, classification and replication schemes."""

from .generators import (
    random_disjoint_family,
    random_inclusive_family,
    random_interval_family,
    random_nested_family,
)
from .replication import (
    DisjointIntervals,
    NoReplication,
    OverlappingIntervals,
    ReplicationStrategy,
    get_strategy,
    replicate_instance,
)
from .sets import (
    degraded_family,
    interval,
    is_circular_interval,
    is_contiguous,
    ring_interval,
)
from .structures import (
    REDUCTION_GRAPH,
    STRUCTURES,
    classify_family,
    is_disjoint_family,
    is_inclusive_family,
    is_interval_family,
    is_nested_family,
    nested_interval_order,
    specializes,
)

__all__ = [
    "DisjointIntervals",
    "NoReplication",
    "OverlappingIntervals",
    "REDUCTION_GRAPH",
    "ReplicationStrategy",
    "STRUCTURES",
    "classify_family",
    "degraded_family",
    "get_strategy",
    "interval",
    "is_circular_interval",
    "is_contiguous",
    "is_disjoint_family",
    "is_inclusive_family",
    "is_interval_family",
    "is_nested_family",
    "nested_interval_order",
    "random_disjoint_family",
    "random_inclusive_family",
    "random_interval_family",
    "random_nested_family",
    "replicate_instance",
    "ring_interval",
    "specializes",
]
