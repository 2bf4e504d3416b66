"""Workload driver: scheduling, gating, concurrent execution, validation."""

from .clock import GlobalClock
from .config import DEFAULT_FREQUENCIES, DriverConfig, TriggerConfig
from .runner import BenchmarkRunner
from .schedule import (
    QUERY,
    UPDATE,
    QueryInstance,
    Schedule,
    ScheduleEntry,
    build_schedule,
    wall_offset,
)
from .stats import RunReport, compute_stats, on_time, percentile, summarize_run
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
    "QUERY",
    "UPDATE",
    "build_schedule",
    "wall_offset",
    "RunReport",
    "compute_stats",
    "on_time",
    "percentile",
    "summarize_run",
    "derive_triggers",
    "cross_validate",
]
