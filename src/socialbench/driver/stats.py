"""Latency accounting and the run report."""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

PERCENTILES = (50, 90, 95, 99)

# The on-time rule: an operation is on time when it starts at most
# ON_TIME_MS after its scheduled slot, and a paced run is valid when at
# least ON_TIME_TARGET of its measured operations are on time.
ON_TIME_MS = 1_000
ON_TIME_TARGET = 0.95


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile over an ascending list."""
    if not sorted_values:
        raise ValueError("no values")
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def compute_stats(values: list[float]) -> dict[str, float]:
    """min / max / mean plus the standard percentiles."""
    if not values:
        return {"count": 0}
    ordered = sorted(values)
    out = {
        "count": len(ordered),
        "min": ordered[0],
        "max": ordered[-1],
        "mean": sum(ordered) / len(ordered),
    }
    for p in PERCENTILES:
        out[f"p{p}"] = percentile(ordered, p)
    return out


@dataclass
class RunReport:
    """Everything a finished (or truncated) run has to say for itself."""

    mode: str = "benchmark"
    total_operations: int = 0
    class_totals: dict[str, int] = field(default_factory=dict)
    variant_latency_ms: dict[str, dict] = field(default_factory=dict)
    # Lateness is measured only in a paced run: otherwise delay_ms and
    # delay_ms_by_class stay empty, and the on-time counts, ratio and
    # verdict are None.  A paced run that measured no operation has no
    # ratio and is not valid.
    delay_ms: dict[str, float] = field(default_factory=dict)
    delay_ms_by_class: dict[str, dict] = field(default_factory=dict)
    on_time_count: int | None = 0
    late_count: int | None = 0
    on_time_ratio: float | None = None
    valid: bool | None = False
    wall_seconds: float = 0.0
    throughput_ops_per_sec: float = 0.0
    deferrals: int = 0
    schedule_exhausted: bool = False
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "totalOperations": self.total_operations,
            "classTotals": dict(self.class_totals),
            "variantLatencyMs": {k: dict(v) for k, v in self.variant_latency_ms.items()},
            "delayMs": dict(self.delay_ms),
            "delayMsByClass": {k: dict(v) for k, v in self.delay_ms_by_class.items()},
            "onTime": {
                "count": self.on_time_count,
                "late": self.late_count,
                "ratio": self.on_time_ratio,
                "target": ON_TIME_TARGET,
                "valid": self.valid,
            },
            "wallSeconds": self.wall_seconds,
            "throughputOpsPerSec": self.throughput_ops_per_sec,
            "deferrals": self.deferrals,
            "scheduleExhausted": self.schedule_exhausted,
            "warnings": list(self.warnings),
        }


def kind_of(op_type: str) -> str:
    """The class of an operation: "CR"/"SR" for a read variant such as
    CR13a or SR2, "INS"/"DEL" for an update op code such as INS6."""
    return op_type[:2] if op_type.startswith(("CR", "SR")) else op_type[:3]


# A log record is a tuple of scalars in this field order: a read's record
# has the first four fields, an update's all eight.  The dict form adds
# kind, derived from opType, in front.
RECORD_FIELDS = ("opType", "scheduledWallMs", "actualWallMs", "latencyMs",
                 "opIndex", "dependencyMs", "clockAtRelease", "gateWaitMs")
_GATE_WAIT = RECORD_FIELDS.index("gateWaitMs")


def record_dict(record: tuple) -> dict:
    """The dict form of one log record, keyed as its fields are named."""
    return {"kind": kind_of(record[0]), **dict(zip(RECORD_FIELDS, record))}


def summarize_run(records: list[tuple], wall_seconds: float, mode: str) -> RunReport:
    """Fold log records (tuples, see RECORD_FIELDS) into a RunReport.

    The records are grouped by opType, and each variant's kind is derived
    once.  An update that waited at the dependency gate has a nonzero
    gateWaitMs and counts as a deferral.  Only a paced run is graded on
    time: in throughput mode nothing waits for its slot, so a start's
    distance from its slot grades nothing, and lateness is left
    unmeasured (see RunReport).  A paced run's lateness is also
    summarized per kind.
    """
    total = len(records)
    report = RunReport(mode=mode, total_operations=total, wall_seconds=wall_seconds)
    by_variant: defaultdict[str, list[tuple]] = defaultdict(list)
    for record in records:
        by_variant[record[0]].append(record)
    class_totals = report.class_totals
    by_class: dict[str, list[float]] = {}
    paced = mode == "paced"
    deferrals = 0
    for variant, rows in sorted(by_variant.items()):
        kind = kind_of(variant)
        class_totals[kind] = class_totals.get(kind, 0) + len(rows)
        report.variant_latency_ms[variant] = compute_stats([row[3] for row in rows])
        if len(rows[0]) > _GATE_WAIT:
            deferrals += sum(1 for row in rows if row[_GATE_WAIT])
        if paced:
            by_class.setdefault(kind, []).extend(row[2] - row[1] for row in rows)
    report.deferrals = deferrals
    if total and wall_seconds > 0:
        report.throughput_ops_per_sec = total / wall_seconds
    if not paced:
        report.on_time_count = report.late_count = report.on_time_ratio = report.valid = None
        return report
    delays = [delay for values in by_class.values() for delay in values]
    on_time_count = sum(delay <= ON_TIME_MS for delay in delays)
    report.on_time_count, report.late_count = on_time_count, total - on_time_count
    if total:
        report.delay_ms = compute_stats(delays)
        report.delay_ms_by_class = {kind: compute_stats(values)
                                    for kind, values in sorted(by_class.items())}
        report.on_time_ratio = on_time_count / total
        report.valid = report.on_time_ratio >= ON_TIME_TARGET
    return report
