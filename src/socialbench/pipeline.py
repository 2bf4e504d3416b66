"""End-to-end orchestration: generate, curate, load, run, validate, report.

Each stage is timed and failures are re-raised wrapped with the stage
name.  The result is a single report dict (also written as fdr.json
next to a human-readable summary) that echoes the configuration,
describes the data actually produced, and embeds the run and
validation outcomes, so a run can be audited from its artifacts alone.
"""

from __future__ import annotations

import dataclasses
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
from .driver import BenchmarkRunner, DriverConfig, RunReport, build_schedule, cross_validate
from .errors import ConfigInvalid, StageFailed, check_config_types, write_json
from .model import TemporalGraph
from .paramgen import ParamGenOptions, generate_parameters, write_buckets
from .refstore import NaiveStore, ReferenceStore
from .simtime import format_instant


# Section of a config file and of the report -> its PipelineConfig field.
SECTIONS = {"datagen": "gen", "driver": "driver", "paramgen": "params"}


@dataclass(frozen=True)
class PipelineConfig:
    """Aggregate configuration of one full pipeline run."""

    gen: GenConfig = field(default_factory=lambda: GenConfig(seed=1, num_persons=200))
    driver: DriverConfig = field(default_factory=lambda: DriverConfig(pacing=False))
    params: ParamGenOptions = field(default_factory=ParamGenOptions)
    out_dir: str | None = None
    validate_stores: bool = True

    def __post_init__(self) -> None:
        check_config_types(self)


def emit_stats(graph: TemporalGraph, sas) -> dict:
    """Size statistics of a generated dataset and its cutoff split.

    Nodes are persons, forums, and messages; edges are knows, likes,
    and membership edges.  The split adds the operation counts and
    their ratio.
    """
    counts = graph.counts()
    partition = sas.partition_counts()
    inserts, deletes = partition["inserts"], partition["deletes"]
    return {
        "nodes": counts["persons"] + counts["forums"] + counts["messages"],
        "edges": counts["knows"] + counts["likes"] + counts["members"],
        "collections": counts,
        "cutoff": sas.cutoff,
        "cutoffDate": format_instant(sas.cutoff),
        "snapshotEntities": partition["snapshot"],
        "insertOperations": inserts,
        "deleteOperations": deletes,
        "retiredEntities": partition["retired"],
        "deleteInsertRatio": deletes / inserts if inserts else 0.0,
    }


def _loaded(store_cls, sas):
    """A store_cls that cascades as sas's dataset did, holding its snapshot."""
    store = store_cls(
        delete_forums_of_deleted_moderator=sas.config.delete_forums_of_deleted_moderator)
    store.bulk_load(sas.snapshot)
    return store


def run_benchmark(sas, schedule, driver: DriverConfig) -> tuple[BenchmarkRunner, RunReport]:
    """The benchmark stage: the schedule run against a ReferenceStore."""
    runner = BenchmarkRunner(_loaded(ReferenceStore, sas), schedule, driver)
    return runner, runner.run()


def run_validation(sas, schedule, driver: DriverConfig) -> dict:
    """The validate stage: the schedule cross-validated against a NaiveStore."""
    return cross_validate(_loaded(ReferenceStore, sas), _loaded(NaiveStore, sas),
                          schedule, driver)


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
    out = Path(config.out_dir) if config.out_dir is not None else None
    if out is not None:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigInvalid("out_dir", f"not creatable: {exc}") from exc
    stages: list[dict] = []

    @contextmanager
    def stage(name: str):
        started = time.perf_counter()
        try:
            yield
        except Exception as exc:
            raise StageFailed(name, exc) from exc
        stages.append({"name": name, "seconds": time.perf_counter() - started})

    with stage("datagen"):
        graph = generate_temporal_graph(config.gen)
        sas = split_at_cutoff(graph, config.gen)
        if out is not None:
            write_dataset(graph, sas, out / "dataset")

    with stage("paramgen"):
        buckets = generate_parameters(graph, sas.cutoff, config.params,
                                      simulation_end=config.gen.simulation_end)
        if out is not None:
            write_buckets(buckets, out / "params")

    with stage("schedule"):
        schedule = build_schedule(sas.stream, buckets, sas.cutoff, config.driver)

    with stage("benchmark"):
        _, run_report = run_benchmark(sas, schedule, config.driver)

    validation = None
    if config.validate_stores:
        with stage("validate"):
            validation = run_validation(sas, schedule, config.driver)

    report = {
        "configuration": {section: dataclasses.asdict(getattr(config, name))
                          for section, name in SECTIONS.items()},
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
        # Only a paced run has an on-time verdict; valid is None otherwise.
        "passed": run_report.valid is not False and (validation is None
                                                     or validation["diffCount"] == 0),
    }
    if out is not None:
        try:
            write_json(out / "fdr.json", report)
            (out / "summary.txt").write_text(render_summary(report),
                                             encoding="utf-8")
        except OSError as exc:
            raise StageFailed("report", exc) from exc
    return report


def render_summary(report: dict) -> str:
    """Short human-readable digest of a pipeline report."""
    data = report["dataStats"]
    run = report["run"]
    on_time = run["onTime"]
    ratio = "n/a" if on_time["ratio"] is None else f"{on_time['ratio']:.4f}"
    lines = [
        "benchmark pipeline summary",
        "==========================",
        f"generated: {data['nodes']} nodes, {data['edges']} edges "
        f"({data['collections']['persons']} persons)",
        f"cutoff: {data['cutoffDate']}",
        f"stream: {data['insertOperations']} inserts, "
        f"{data['deleteOperations']} deletes "
        f"(ratio {data['deleteInsertRatio']:.4f})",
        f"schedule: {report['schedule']['classTotals']}",
        f"run mode: {run['mode']}; measured ops: {run['totalOperations']}; "
        f"throughput: {run['throughputOpsPerSec']:.0f} ops/s",
        f"on-time ratio: {ratio} "
        f"(target {on_time['target']}); valid: "
        f"{'n/a' if on_time['valid'] is None else on_time['valid']}",
    ]
    if report["validation"] is not None:
        lines.append(f"validation: {report['validation']['queries']} queries, "
                     f"{report['validation']['diffCount']} divergences")
    lines.append("stages: " + ", ".join(
        f"{s['name']} {s['seconds']:.2f}s" for s in report["stages"]))
    lines.append(f"overall: {'PASS' if report['passed'] else 'FAIL'}")
    return "\n".join(lines) + "\n"
