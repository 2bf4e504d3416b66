"""Command-line entry point.

Five subcommands cover the pipeline stages: datagen writes a dataset
directory, paramgen curates per-day parameters from it, driver runs or
validates a workload, acid exercises the isolation scenarios, and
pipeline chains everything and emits the full report.  Exit code 0
means success, 1 means the run completed but failed its checks.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .acid import (
    NonVersionedReadStore,
    SplitCascadeStore,
    run_cascade_atomicity,
    run_traversal_anomaly,
)
from .datagen import (
    GenConfig,
    generate_temporal_graph,
    read_dataset,
    split_at_cutoff,
    write_dataset,
)
from .driver import DriverConfig, build_schedule
from .errors import (ConfigInvalid, ParseError, SocialBenchError, load_config, read_json,
                     write_json, write_records)
from .paramgen import ParamGenOptions, generate_parameters, read_buckets, write_buckets
from .pipeline import (
    SECTIONS,
    PipelineConfig,
    emit_stats,
    render_summary,
    run_benchmark,
    run_pipeline,
    run_validation,
)
from .refstore import ReferenceStore
from .simtime import MS_PER_SECOND

_STORES = {
    "reference": ReferenceStore,
    "non-versioned": NonVersionedReadStore,
    "split-cascade": SplitCascadeStore,
}

_SCENARIOS = {
    "traversal": run_traversal_anomaly,
    "cascade": run_cascade_atomicity,
}


def _given(args: argparse.Namespace, cls, prefix: str = "") -> dict:
    """The flags given for the fields of the dataclass cls, keyed by field;
    a flag's dest is prefix + field."""
    return {f.name: getattr(args, prefix + f.name)
            for f in dataclasses.fields(cls) if hasattr(args, prefix + f.name)}


def cmd_datagen(args: argparse.Namespace) -> int:
    config = load_config(GenConfig, {**dataclasses.asdict(PipelineConfig().gen),
                                     **_given(args, GenConfig)}, "datagen")
    graph = generate_temporal_graph(config)
    sas = split_at_cutoff(graph, config)
    write_dataset(graph, sas, args.out)
    stats = emit_stats(graph, sas)
    print(f"wrote {args.out}: {stats['nodes']} nodes, {stats['edges']} edges")
    print(f"cutoff {stats['cutoffDate']}; stream {stats['insertOperations']} INS "
          f"+ {stats['deleteOperations']} DEL; {stats['retiredEntities']} retired")
    return 0


def cmd_paramgen(args: argparse.Namespace) -> int:
    graph, sas = read_dataset(args.graph)
    options = load_config(ParamGenOptions, _given(args, ParamGenOptions), "paramgen")
    buckets = generate_parameters(graph, sas.cutoff, options,
                                  simulation_end=sas.config.simulation_end)
    write_buckets(buckets, args.out)
    partial = sum(1 for b in buckets.values() if b.partial)
    print(f"wrote {len(buckets)} daily buckets to {args.out} ({partial} partial)")
    for bucket in buckets.values():
        for warning in bucket.warnings:
            print(f"  warning: {warning}")
    return 0


def cmd_driver(args: argparse.Namespace) -> int:
    if args.mode == "validate" and args.audit_log:
        raise ConfigInvalid("audit_log", "validate mode runs no benchmark to audit")
    _, sas = read_dataset(args.stream)
    buckets = read_buckets(args.params)
    config = load_config(DriverConfig, _given(args, DriverConfig), "driver")
    schedule = build_schedule(sas.stream, buckets, sas.cutoff, config)
    if args.mode == "validate":
        result = run_validation(sas, schedule, config)
        if args.report is not None:
            write_json(args.report, result)
        print(f"validated {result['updates']} updates / {result['queries']} queries: "
              f"{result['diffCount']} divergences")
        for diff in result["diffs"][:5]:
            print(f"  {diff['variant']} at {diff['at']}")
        return 1 if result["diffCount"] else 0

    runner, report = run_benchmark(sas, schedule, config)
    if args.report is not None:
        write_json(args.report, report.to_dict())
    if args.audit_log:
        updates = [record for record in runner.log if "opIndex" in record]
        write_records(args.audit_log, sorted(updates, key=lambda r: r["opIndex"]))
    ratio = "n/a" if report.on_time_ratio is None else f"{report.on_time_ratio:.4f}"
    verdict = "n/a" if report.valid is None else report.valid
    print(f"mode={report.mode} measured={report.total_operations} "
          f"on-time={ratio} valid={verdict}")
    return 1 if report.valid is False else 0


def cmd_acid(args: argparse.Namespace) -> int:
    if args.runs < 1:
        raise ConfigInvalid("runs", "must be at least 1")
    store_factory = _STORES[args.store]
    names = list(_SCENARIOS) if args.scenario == "all" else [args.scenario]
    results = []
    for name in names:
        for run_no in range(args.runs):
            result = _SCENARIOS[name](store_factory, seed=args.seed + run_no)
            results.append({"name": result.name, "seed": args.seed + run_no,
                            "passed": result.passed,
                            "violations": result.violations,
                            "details": result.details})
    passed = all(r["passed"] for r in results)
    payload = {"store": args.store, "results": results, "passed": passed}
    if args.report is not None:
        write_json(args.report, payload)
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"{status} {r['name']} seed={r['seed']}")
        for violation in r["violations"]:
            print(f"  {violation}")
    return 0 if passed else 1


def _object(value, name: str) -> dict:
    """The config object value; anything else is ConfigInvalid."""
    if not isinstance(value, dict):
        raise ConfigInvalid(name, "not an object")
    return value


def _laid_over(base: PipelineConfig, sections) -> PipelineConfig:
    """base with each section's dict laid over its own part."""
    sections = _object(sections, "(top level)")
    unknown = sorted(set(sections) - set(SECTIONS))
    if unknown:
        raise ConfigInvalid(unknown[0], "unknown section")
    parts = {}
    for section, name in SECTIONS.items():
        part = getattr(base, name)
        parts[name] = load_config(type(part), {**dataclasses.asdict(part),
                                               **_object(sections.get(section, {}), section)},
                                  section)
    return dataclasses.replace(base, **parts)


def pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    """The configuration `pipeline` runs with, not yet run.

    The --config file goes over PipelineConfig's defaults and must be
    valid by itself: a file that does not parse or load raises ParseError
    naming it.  Explicit flags win over both.
    """
    config = PipelineConfig()
    if args.config:
        try:
            config = _laid_over(config, read_json(args.config))
        except ConfigInvalid as exc:
            raise ParseError(args.config, 1, str(exc)) from exc
    flags = {section: _given(args, type(getattr(config, name)), f"{section}.")
             for section, name in SECTIONS.items()}
    return dataclasses.replace(_laid_over(config, flags), **_given(args, PipelineConfig))


def cmd_pipeline(args: argparse.Namespace) -> int:
    report = run_pipeline(pipeline_config(args))
    print(render_summary(report), end="")
    return 0 if report["passed"] else 1


def _secs_as_ms(text: str) -> int:
    return int(float(text) * MS_PER_SECOND)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socialbench",
        description="Temporal social-network benchmark toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    # A config flag sets only what the user gives, into the dest of the
    # dataclass field it overrides: every default is the dataclass's own.
    p = sub.add_parser("datagen", help="generate a dataset directory",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int)
    p.add_argument("--persons", dest="num_persons", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--cutoff-fraction", type=float)
    p.add_argument("--t-safe-secs", dest="t_safe", type=_secs_as_ms)
    p.add_argument("--degree-exponent", type=float)
    p.add_argument("--homophily", dest="homophily_weight", type=float)
    p.add_argument("--flashmobs", dest="flashmob_count", type=int)
    p.add_argument("--deletion-rate", dest="person_deletion_rate", type=float)
    p.add_argument("--content-scale", type=float)
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("paramgen", help="curate per-day query parameters",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--graph", required=True, help="dataset directory from datagen")
    p.add_argument("--out", required=True)
    p.add_argument("--k", dest="hop_count", type=int, help="hop distance for path pairs")
    p.add_argument("--per-day", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--min-group-size", type=int)
    p.add_argument("--cr3-duration-days", type=int)
    p.set_defaults(func=cmd_paramgen)

    p = sub.add_parser("driver", help="run or validate a workload",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--mode", choices=["benchmark", "validate"], default="benchmark")
    p.add_argument("--tcr", type=float)
    p.add_argument("--stream", required=True, help="dataset directory")
    p.add_argument("--params", required=True, help="parameter bucket directory")
    p.add_argument("--window-secs", type=float)
    p.add_argument("--read-threads", type=int)
    p.add_argument("--write-threads", type=int)
    p.add_argument("--report", default=None, help="write the run report JSON here")
    p.add_argument("--audit-log", default=None,
                   help="write each update's log record as line-delimited JSON")
    p.add_argument("--seed", type=int)
    p.add_argument("--no-pace", dest="pacing", action="store_false",
                   help="workers take each entry as soon as they are free, "
                        "without sleeping until its slot")
    p.set_defaults(func=cmd_driver)

    p = sub.add_parser("acid", help="run isolation scenarios")
    p.add_argument("--store", choices=sorted(_STORES), default="reference")
    p.add_argument("--scenario", choices=["all", *sorted(_SCENARIOS)], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_acid)

    p = sub.add_parser("pipeline", help="full run: generate, curate, bench, report",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--config", default=None, help="JSON config file; flags override")
    p.add_argument("--out", dest="out_dir", help="artifact directory")
    p.add_argument("--seed", dest="datagen.seed", type=int)
    p.add_argument("--persons", dest="datagen.num_persons", type=int)
    p.add_argument("--content-scale", dest="datagen.content_scale", type=float)
    p.add_argument("--cutoff-fraction", dest="datagen.cutoff_fraction", type=float)
    p.add_argument("--tcr", dest="driver.tcr", type=float)
    p.add_argument("--read-threads", dest="driver.read_threads", type=int)
    p.add_argument("--write-threads", dest="driver.write_threads", type=int)
    p.add_argument("--per-day", dest="paramgen.per_day", type=int)
    p.add_argument("--no-validate", dest="validate_stores", action="store_false")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SocialBenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
