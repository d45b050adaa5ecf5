"""Core scheduling model: tasks, schedules, EFT/FIFO and baselines."""

from .baselines import LeastWorkAssign, RandomAssign, RoundRobinAssign
from .dispatch import DispatchRecord, ImmediateDispatchScheduler
from .eft import EFT, eft_schedule
from .fifo import FIFO, RestrictedFIFO, fifo_schedule
from .gantt import render_gantt, render_profile
from .metrics import ScheduleStats, flow_percentiles, summarize, waiting_profile
from .nonclairvoyant import C3Like, LeastOutstanding
from .schedule import Assignment, Schedule, ScheduleError
from .task import Instance, Task
from .tiebreak import (
    FunctionTieBreak,
    LeastLoadedFirst,
    MaxIndex,
    MinIndex,
    RandomChoice,
    TieBreak,
    get_tiebreak,
)

__all__ = [
    "Assignment",
    "C3Like",
    "DispatchRecord",
    "EFT",
    "FIFO",
    "FunctionTieBreak",
    "ImmediateDispatchScheduler",
    "Instance",
    "LeastLoadedFirst",
    "LeastOutstanding",
    "LeastWorkAssign",
    "MaxIndex",
    "MinIndex",
    "RandomAssign",
    "RandomChoice",
    "RestrictedFIFO",
    "RoundRobinAssign",
    "Schedule",
    "ScheduleError",
    "ScheduleStats",
    "Task",
    "TieBreak",
    "eft_schedule",
    "fifo_schedule",
    "flow_percentiles",
    "get_tiebreak",
    "render_gantt",
    "render_profile",
    "summarize",
    "waiting_profile",
]
