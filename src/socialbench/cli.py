"""Command-line entry point.

Five subcommands cover the pipeline stages: datagen writes a dataset
directory, paramgen curates per-day parameters from it, driver runs or
validates a workload, acid exercises the isolation scenarios, and
pipeline chains everything and emits the full report.  Exit code 0
means success, 1 means the run completed but failed its checks.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .acid import (
    NonVersionedReadStore,
    SplitCascadeStore,
    run_cascade_atomicity,
    run_traversal_anomaly,
)
from .datagen import (
    GenConfig,
    deserialize,
    generate_temporal_graph,
    read_dataset,
    split_at_cutoff,
    write_dataset,
)
from .driver import BenchmarkRunner, DriverConfig, TriggerConfig, build_schedule, cross_validate
from .errors import ConfigInvalid, SocialBenchError, check_config_keys
from .paramgen import ParamGenOptions, generate_parameters, read_buckets, write_buckets
from .pipeline import PipelineConfig, emit_stats, render_summary, run_pipeline
from .refstore import NaiveStore, ReferenceStore

_STORES = {
    "reference": ReferenceStore,
    "non-versioned": NonVersionedReadStore,
    "split-cascade": SplitCascadeStore,
}

_SCENARIOS = {
    "traversal": run_traversal_anomaly,
    "cascade": run_cascade_atomicity,
}


def _write_json(path: str | None, payload: dict) -> None:
    if path is None:
        return
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_datagen(args: argparse.Namespace) -> int:
    config = GenConfig(
        seed=args.seed, num_persons=args.persons,
        cutoff_fraction=args.cutoff_fraction,
        t_safe=int(args.t_safe_secs * 1000),
        degree_exponent=args.degree_exponent,
        homophily_weight=args.homophily,
        flashmob_count=args.flashmobs,
        person_deletion_rate=args.deletion_rate,
        content_scale=args.content_scale)
    graph = generate_temporal_graph(config)
    sas = split_at_cutoff(graph, config)
    write_dataset(graph, sas, config, args.out)
    stats = emit_stats(graph, sas)
    print(f"wrote {args.out}: {stats['nodes']} nodes, {stats['edges']} edges")
    print(f"cutoff {stats['cutoffDate']}; stream {stats['insertOperations']} INS "
          f"+ {stats['deleteOperations']} DEL; {stats['retiredEntities']} retired")
    return 0


def cmd_paramgen(args: argparse.Namespace) -> int:
    graph, sas, gen_config = read_dataset(args.graph)
    options = ParamGenOptions(seed=args.seed, per_day=args.per_day,
                              hop_count=args.k,
                              min_group_size=args.min_group_size,
                              cr3_duration_days=args.cr3_duration_days)
    buckets = generate_parameters(graph, sas.cutoff, options,
                                  simulation_end=gen_config.simulation_end)
    write_buckets(buckets, args.out)
    partial = sum(1 for b in buckets.values() if b.partial)
    print(f"wrote {len(buckets)} daily buckets to {args.out} ({partial} partial)")
    for bucket in buckets.values():
        for warning in bucket.warnings:
            print(f"  warning: {warning}")
    return 0


def _driver_setup(args: argparse.Namespace):
    sas = deserialize(args.stream)
    buckets = read_buckets(args.params)
    moderator_cascade = True
    config_path = Path(args.stream) / "config.json"
    if config_path.exists():
        with config_path.open("r", encoding="utf-8") as handle:
            gen = GenConfig.from_dict(json.load(handle))
        moderator_cascade = gen.delete_forums_of_deleted_moderator
    config = DriverConfig(
        tcr=args.tcr, read_threads=args.read_threads,
        write_threads=args.write_threads, seed=args.seed, pacing=args.pace,
        warmup_secs=args.warmup_secs, window_secs=args.window_secs)
    schedule = build_schedule(sas.stream, buckets, sas.cutoff, config)
    return sas, schedule, config, moderator_cascade


def cmd_driver(args: argparse.Namespace) -> int:
    sas, schedule, config, moderator_cascade = _driver_setup(args)
    if args.mode == "validate":
        ref = ReferenceStore(delete_forums_of_deleted_moderator=moderator_cascade)
        naive = NaiveStore(delete_forums_of_deleted_moderator=moderator_cascade)
        ref.bulk_load(sas.snapshot)
        naive.bulk_load(sas.snapshot)
        result = cross_validate(ref, naive, schedule, config)
        _write_json(args.report, result)
        print(f"validated {result['updates']} updates / {result['queries']} queries: "
              f"{result['diffCount']} divergences")
        for diff in result["diffs"][:5]:
            print(f"  {diff['variant']} at {diff['at']}")
        return 1 if result["diffCount"] else 0

    store = ReferenceStore(delete_forums_of_deleted_moderator=moderator_cascade)
    store.bulk_load(sas.snapshot)
    runner = BenchmarkRunner(store, schedule, config)
    report = runner.run()
    _write_json(args.report, report.to_dict())
    if args.audit_log:
        audit_path = Path(args.audit_log)
        audit_path.parent.mkdir(parents=True, exist_ok=True)
        with audit_path.open("w", encoding="utf-8") as handle:
            for entry in sorted(runner.audit_log, key=lambda e: e["opIndex"]):
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"mode={report.mode} measured={report.total_operations} "
          f"on-time={report.on_time_ratio:.4f} valid={report.valid}")
    return 0 if report.valid else 1


def cmd_acid(args: argparse.Namespace) -> int:
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
    _write_json(args.report, payload)
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"{status} {r['name']} seed={r['seed']}")
        for violation in r["violations"]:
            print(f"  {violation}")
    return 0 if passed else 1


def _load_section(cls, data: dict, section: str):
    """The dataclass cls built from data and validated; a ConfigInvalid
    names its field under section."""
    check_config_keys(cls, data, section)
    config = cls(**data)
    try:
        config.validate()
    except ConfigInvalid as exc:
        raise ConfigInvalid(f"{section}.{exc.field}", exc.reason) from exc
    return config


def _object(value, name: str) -> dict:
    """A copy of the config object value; anything else is ConfigInvalid."""
    if not isinstance(value, dict):
        raise ConfigInvalid(name, "not an object")
    return dict(value)


def _load_pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    file_conf: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            file_conf = _object(json.load(handle), "(top level)")
    unknown = sorted(set(file_conf) - {"datagen", "driver", "paramgen"})
    if unknown:
        raise ConfigInvalid(unknown[0], "unknown section")

    gen_dict = _object(file_conf.get("datagen", {}), "datagen")
    driver_dict = _object(file_conf.get("driver", {}), "driver")
    param_dict = _object(file_conf.get("paramgen", {}), "paramgen")
    # Explicit flags win over the config file.
    overrides = {
        "seed": ("seed", gen_dict), "persons": ("num_persons", gen_dict),
        "content_scale": ("content_scale", gen_dict),
        "cutoff_fraction": ("cutoff_fraction", gen_dict),
        "tcr": ("tcr", driver_dict),
        "read_threads": ("read_threads", driver_dict),
        "write_threads": ("write_threads", driver_dict),
        "per_day": ("per_day", param_dict),
    }
    for flag, (key, target) in overrides.items():
        value = getattr(args, flag)
        if value is not None:
            target[key] = value

    gen_dict.setdefault("seed", 1)
    gen_dict.setdefault("num_persons", 200)
    gen = _load_section(GenConfig, gen_dict, "datagen")
    driver_dict.setdefault("pacing", False)
    triggers = driver_dict.pop("triggers", None)
    if triggers is not None:
        driver_dict["triggers"] = _load_section(
            TriggerConfig, _object(triggers, "driver.triggers"), "driver.triggers")
    driver = _load_section(DriverConfig, driver_dict, "driver")
    params = _load_section(ParamGenOptions, param_dict, "paramgen")
    return PipelineConfig(gen=gen, driver=driver, params=params,
                          out_dir=args.out, validate_stores=not args.no_validate)


def cmd_pipeline(args: argparse.Namespace) -> int:
    config = _load_pipeline_config(args)
    report = run_pipeline(config)
    print(render_summary(report), end="")
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socialbench",
        description="Temporal social-network benchmark toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate a dataset directory")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--persons", type=int, default=200)
    p.add_argument("--out", required=True)
    p.add_argument("--cutoff-fraction", type=float, default=0.97)
    p.add_argument("--t-safe-secs", type=float, default=10.0)
    p.add_argument("--degree-exponent", type=float, default=2.5)
    p.add_argument("--homophily", type=float, default=0.5)
    p.add_argument("--flashmobs", type=int, default=2)
    p.add_argument("--deletion-rate", type=float, default=0.04)
    p.add_argument("--content-scale", type=float, default=1.0)
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("paramgen", help="curate per-day query parameters")
    p.add_argument("--graph", required=True, help="dataset directory from datagen")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=4, help="hop distance for path pairs")
    p.add_argument("--per-day", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-group-size", type=int, default=10)
    p.add_argument("--cr3-duration-days", type=int, default=28)
    p.set_defaults(func=cmd_paramgen)

    p = sub.add_parser("driver", help="run or validate a workload")
    p.add_argument("--mode", choices=["benchmark", "validate"], default="benchmark")
    p.add_argument("--tcr", type=float, default=0.02)
    p.add_argument("--stream", required=True, help="dataset directory")
    p.add_argument("--params", required=True, help="parameter bucket directory")
    p.add_argument("--warmup-secs", type=float, default=0.0)
    p.add_argument("--window-secs", type=float, default=None)
    p.add_argument("--read-threads", type=int, default=2)
    p.add_argument("--write-threads", type=int, default=2)
    p.add_argument("--report", default=None, help="write the run report JSON here")
    p.add_argument("--audit-log", default=None,
                   help="write the commit audit trail as line-delimited JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-pace", dest="pace", action="store_false",
                   help="dispatch without sleeping between scheduled slots")
    p.set_defaults(func=cmd_driver, pace=True)

    p = sub.add_parser("acid", help="run isolation scenarios")
    p.add_argument("--store", choices=sorted(_STORES), default="reference")
    p.add_argument("--scenario", choices=["all", *sorted(_SCENARIOS)], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_acid)

    p = sub.add_parser("pipeline", help="full run: generate, curate, bench, report")
    p.add_argument("--config", default=None, help="JSON config file; flags override")
    p.add_argument("--out", default=None, help="artifact directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--persons", type=int, default=None)
    p.add_argument("--content-scale", type=float, default=None)
    p.add_argument("--cutoff-fraction", type=float, default=None)
    p.add_argument("--tcr", type=float, default=None)
    p.add_argument("--read-threads", type=int, default=None)
    p.add_argument("--write-threads", type=int, default=None)
    p.add_argument("--per-day", type=int, default=None)
    p.add_argument("--no-validate", action="store_true")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SocialBenchError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
