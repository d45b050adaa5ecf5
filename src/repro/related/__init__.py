"""Related machines substrate (Table 1's Q environment)."""

from .model import SpeedCluster
from .schedulers import GreedyRelated, SlowFitRelated

__all__ = ["GreedyRelated", "SlowFitRelated", "SpeedCluster"]
