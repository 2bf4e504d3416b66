"""Wall-clock schedule construction.

The update stream carries simulation timestamps; the schedule maps them
onto a wall timeline via the time compression ratio and interleaves
complex-read instances at fixed update cadences.  Wall offsets are kept
as exact fractions of a millisecond so no float rounding can reorder
two operations that the simulation ordered.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction

from ..errors import MissingBucket
from ..model import UpdateOperation
from ..paramgen.buckets import ParameterBucket
from ..simtime import day_date, day_start
from .config import DriverConfig
from .stats import kind_of

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class QueryInstance:
    variant: str
    params: dict
    depth: int = 0


@dataclass(frozen=True)
class ScheduleEntry:
    """One slot of the schedule: an update when op is set, else a query.

    due_secs is float(wall_offset_ms) / 1000.0: the instant in seconds
    that a paced worker starts the entry on, and that the run's window
    is compared with.
    """

    seq: int
    wall_offset_ms: Fraction
    due_secs: float
    op: UpdateOperation | None = None
    op_index: int | None = None
    query: QueryInstance | None = None


@dataclass
class Schedule:
    cutoff: int
    entries: list[ScheduleEntry] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def class_counts(self) -> dict[str, int]:
        out = {"CR": 0, "INS": 0, "DEL": 0}
        for entry in self.entries:
            kind = kind_of(entry.query.variant if entry.op is None else entry.op.op_type)
            out[kind] = out.get(kind, 0) + 1
        return out


def wall_offset(sim_time: int, cutoff: int, tcr: Fraction) -> Fraction:
    """Exact wall milliseconds after run start for a simulation instant."""
    return tcr * (sim_time - cutoff)


def build_schedule(stream: list[UpdateOperation],
                   buckets: dict[int, ParameterBucket],
                   cutoff: int,
                   config: DriverConfig | None = None) -> Schedule:
    """Interleave the update stream with complex-read instances.

    Every frequencies[variant]-th update is followed by one instance of
    that variant, parameterized from the bucket of the update's
    simulation day.  A missing bucket for a day that has updates is a
    hard error; a bucket that merely lacks parameter sets for a variant
    skips that instance with a warning.
    """
    config = config or DriverConfig()
    tcr = Fraction(str(config.tcr))
    schedule = Schedule(cutoff=cutoff)
    instance_counts = {variant: 0 for variant in config.frequencies}
    skipped: dict[str, int] = {}
    frequencies = sorted(config.frequencies.items())
    seq = 0

    for op_index, op in enumerate(stream):
        offset = wall_offset(op.scheduled_time, cutoff, tcr)
        due_secs = float(offset) / 1000.0
        schedule.entries.append(ScheduleEntry(
            seq=seq, wall_offset_ms=offset, due_secs=due_secs, op=op, op_index=op_index))
        seq += 1

        update_number = op_index + 1
        firing = [variant for variant, freq in frequencies if update_number % freq == 0]
        if not firing:
            continue
        bucket = buckets.get(day_start(op.scheduled_time))
        if bucket is None:
            raise MissingBucket(f"no parameter bucket for {day_date(op.scheduled_time)}")
        for variant in firing:
            params = bucket.draw(variant, instance_counts[variant])
            instance_counts[variant] += 1
            if params is None:
                skipped[variant] = skipped.get(variant, 0) + 1
                continue
            schedule.entries.append(ScheduleEntry(
                seq=seq, wall_offset_ms=offset, due_secs=due_secs,
                query=QueryInstance(variant=variant, params=params)))
            seq += 1

    for variant, count in sorted(skipped.items()):
        schedule.warnings.append(
            f"{variant}: skipped {count} instances on days without parameters")
    if logger.isEnabledFor(logging.INFO):
        logger.info("schedule: %d entries, %d complex reads, %d instances skipped",
                    len(schedule.entries), len(schedule.entries) - len(stream),
                    sum(skipped.values()))
    return schedule
