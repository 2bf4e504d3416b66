"""End-to-end orchestration: generate, curate, load, run, validate, report.

Each stage is timed and failures are re-raised wrapped with the stage
name.  The result is a single report dict (also written as fdr.json
next to a human-readable summary) that echoes the configuration,
describes the data actually produced, and embeds the run and
validation outcomes, so a run can be audited from its artifacts alone.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .datagen import (
    GenConfig,
    generate_temporal_graph,
    split_at_cutoff,
    write_dataset,
)
from .driver import BenchmarkRunner, DriverConfig, build_schedule, cross_validate
from .errors import ConfigInvalid, StageFailed
from .model import TemporalGraph
from .paramgen import ParamGenOptions, generate_parameters, write_buckets
from .refstore import NaiveStore, ReferenceStore
from .simtime import format_instant


@dataclass(frozen=True)
class PipelineConfig:
    """Aggregate configuration of one full pipeline run."""

    gen: GenConfig = field(default_factory=lambda: GenConfig(seed=1, num_persons=200))
    driver: DriverConfig = field(default_factory=lambda: DriverConfig(pacing=False))
    params: ParamGenOptions = field(default_factory=ParamGenOptions)
    out_dir: str | None = None
    validate_stores: bool = True

    def validate(self) -> None:
        self.gen.validate()
        self.driver.validate()
        self.params.validate()
        if self.out_dir is not None:
            try:
                Path(self.out_dir).mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigInvalid("out_dir", f"not creatable: {exc}") from exc


def emit_stats(graph: TemporalGraph, sas=None) -> dict:
    """Size statistics of a generated dataset.

    Nodes are persons, forums, and messages; edges are knows, likes,
    and membership edges.  When the snapshot/stream split is supplied
    the operation counts and their ratio are included.
    """
    counts = graph.counts()
    stats = {
        "nodes": counts["persons"] + counts["forums"] + counts["messages"],
        "edges": counts["knows"] + counts["likes"] + counts["members"],
        "collections": counts,
    }
    if sas is not None:
        partition = sas.partition_counts()
        inserts, deletes = partition["inserts"], partition["deletes"]
        stats["cutoff"] = sas.cutoff
        stats["cutoffDate"] = format_instant(sas.cutoff)
        stats["snapshotEntities"] = partition["snapshot"]
        stats["insertOperations"] = inserts
        stats["deleteOperations"] = deletes
        stats["retiredEntities"] = partition["retired"]
        stats["deleteInsertRatio"] = deletes / inserts if inserts else 0.0
    return stats


def _environment() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpuCount": os.cpu_count(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def run_pipeline(config: PipelineConfig | None = None) -> dict:
    """All stages in order; returns the report dict (and writes artifacts)."""
    config = config or PipelineConfig()
    config.validate()
    stages: list[dict] = []

    @contextmanager
    def stage(name: str):
        started = time.perf_counter()
        try:
            yield
        except StageFailed:
            raise
        except BaseException as exc:
            raise StageFailed(name, exc) from exc
        stages.append({"name": name, "seconds": time.perf_counter() - started})

    out = Path(config.out_dir) if config.out_dir is not None else None

    with stage("datagen"):
        graph = generate_temporal_graph(config.gen)
        sas = split_at_cutoff(graph, config.gen)
        if out is not None:
            write_dataset(graph, sas, config.gen, out / "dataset")

    with stage("paramgen"):
        buckets = generate_parameters(graph, sas.cutoff, config.params,
                                      simulation_end=config.gen.simulation_end)
        if out is not None:
            write_buckets(buckets, out / "params")

    with stage("schedule"):
        schedule = build_schedule(sas.stream, buckets, sas.cutoff, config.driver)

    with stage("benchmark"):
        store = ReferenceStore(
            delete_forums_of_deleted_moderator=config.gen.delete_forums_of_deleted_moderator)
        store.bulk_load(sas.snapshot)
        runner = BenchmarkRunner(store, schedule, config.driver)
        run_report = runner.run()

    validation = None
    if config.validate_stores:
        with stage("validate"):
            ref = ReferenceStore(
                delete_forums_of_deleted_moderator=config.gen.delete_forums_of_deleted_moderator)
            naive = NaiveStore(
                delete_forums_of_deleted_moderator=config.gen.delete_forums_of_deleted_moderator)
            ref.bulk_load(sas.snapshot)
            naive.bulk_load(sas.snapshot)
            validation = cross_validate(ref, naive, schedule, config.driver)

    report = {
        "configuration": {
            "datagen": config.gen.to_dict(),
            "driver": dataclasses.asdict(config.driver),
            "paramgen": dataclasses.asdict(config.params),
        },
        "dataStats": emit_stats(graph, sas),
        "schedule": {
            "classTotals": schedule.class_counts(),
            "entries": len(schedule.entries),
            "warnings": list(schedule.warnings),
        },
        "run": run_report.to_dict(),
        "validation": validation,
        "environment": _environment(),
        "stages": stages,
        "passed": run_report.valid and (validation is None
                                        or validation["diffCount"] == 0),
    }
    if out is not None:
        try:
            with (out / "fdr.json").open("w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
            (out / "summary.txt").write_text(render_summary(report),
                                             encoding="utf-8")
        except OSError as exc:
            raise StageFailed("report", exc) from exc
    return report


def render_summary(report: dict) -> str:
    """Short human-readable digest of a pipeline report."""
    data = report["dataStats"]
    run = report["run"]
    lines = [
        "benchmark pipeline summary",
        "==========================",
        f"generated: {data['nodes']} nodes, {data['edges']} edges "
        f"({data['collections']['persons']} persons)",
        f"cutoff: {data.get('cutoffDate', 'n/a')}",
        f"stream: {data.get('insertOperations', 0)} inserts, "
        f"{data.get('deleteOperations', 0)} deletes "
        f"(ratio {data.get('deleteInsertRatio', 0.0):.4f})",
        f"schedule: {report['schedule']['classTotals']}",
        f"run mode: {run['mode']}; measured ops: {run['totalOperations']}; "
        f"throughput: {run['throughputOpsPerSec']:.0f} ops/s",
        f"on-time ratio: {run['onTime']['ratio']:.4f} "
        f"(target {run['onTime']['target']}); valid: {run['onTime']['valid']}",
    ]
    if report["validation"] is not None:
        lines.append(f"validation: {report['validation']['queries']} queries, "
                     f"{report['validation']['diffCount']} divergences")
    lines.append("stages: " + ", ".join(
        f"{s['name']} {s['seconds']:.2f}s" for s in report["stages"]))
    lines.append(f"overall: {'PASS' if report['passed'] else 'FAIL'}")
    return "\n".join(lines) + "\n"
