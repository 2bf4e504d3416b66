"""Workload driver: scheduling, gating, concurrent execution, validation."""

from .clock import GlobalClock
from .config import DEFAULT_FREQUENCIES, DriverConfig, TriggerConfig
from .runner import BenchmarkRunner
from .schedule import (
    QueryInstance,
    Schedule,
    ScheduleEntry,
    build_schedule,
    wall_offset,
)
from .stats import (ON_TIME_MS, ON_TIME_TARGET, RunReport, compute_stats, percentile,
                    summarize_run)
from .triggers import derive_triggers
from .validate import cross_validate

__all__ = [
    "BenchmarkRunner",
    "DEFAULT_FREQUENCIES",
    "DriverConfig",
    "TriggerConfig",
    "GlobalClock",
    "QueryInstance",
    "Schedule",
    "ScheduleEntry",
    "build_schedule",
    "wall_offset",
    "ON_TIME_MS",
    "ON_TIME_TARGET",
    "RunReport",
    "compute_stats",
    "percentile",
    "summarize_run",
    "derive_triggers",
    "cross_validate",
]
