"""Replay an update stream through the concurrent driver, twice.

The first run is a throughput run: no pacing, every operation released
as soon as its dependency is confirmed committed.  Nothing waits for its
slot there, so it gets no on-time verdict.  The second run paces
operations onto a wall-clock schedule derived from simulation time via
a total compression ratio, then grades the run against the rule that
95 percent of operations must start within one second of schedule.

Both runs log one record per executed operation.  An update's record
holds the confirmed commit watermark at the moment it was released,
next to the operation's dependency instant.  The watermark may never be
behind the dependency.
"""

from socialbench.datagen import GenConfig, generate_temporal_graph, split_at_cutoff
from socialbench.driver import BenchmarkRunner, DriverConfig, build_schedule
from socialbench.paramgen import ParamGenOptions, generate_parameters
from socialbench.refstore import ReferenceStore


def new_store(sas):
    store = ReferenceStore()
    store.bulk_load(sas.snapshot)
    return store


def show(report, label):
    print(f"\n{label}:")
    print(f"  mode {report.mode}, {report.total_operations} ops "
          f"in {report.wall_seconds:.2f}s "
          f"({report.throughput_ops_per_sec:.0f} ops/s)")
    print(f"  class totals {report.class_totals}")
    print(f"  deferrals {report.deferrals}")
    if report.valid is None:
        print("  on-time n/a (not paced)")
    else:
        verdict = "VALID" if report.valid else "INVALID"
        print(f"  on-time {report.on_time_count}/{report.on_time_count + report.late_count}"
              f" = {report.on_time_ratio:.4f} -> {verdict}")
    for variant in sorted(report.variant_latency_ms)[:4]:
        stats = report.variant_latency_ms[variant]
        print(f"  {variant:6s} p50 {stats['p50']:.3f} ms  "
              f"p99 {stats['p99']:.3f} ms  n {stats['count']:.0f}")


def main():
    cfg = GenConfig(seed=31, num_persons=400, cutoff_fraction=0.80,
                    content_scale=2.0)
    graph = generate_temporal_graph(cfg)
    sas = split_at_cutoff(graph, cfg)
    buckets = generate_parameters(graph, sas.cutoff,
                                  ParamGenOptions(seed=2, per_day=2))
    print(f"stream: {len(sas.stream)} update ops across "
          f"{(max(op.scheduled_time for op in sas.stream) - sas.cutoff) // 86_400_000 + 1} "
          f"simulated days")

    config = DriverConfig(pacing=False, seed=0, write_threads=4, read_threads=2)
    schedule = build_schedule(sas.stream, buckets, sas.cutoff, config)
    runner = BenchmarkRunner(new_store(sas), schedule, config)
    show(runner.run(), "throughput run (updates + curated queries)")
    updates = [record for record in runner.log if "opIndex" in record]
    print(f"  log: {len(runner.log)} records, {len(updates)} of them updates")
    worst = max(updates, key=lambda r: r["dependencyMs"] - r["clockAtRelease"])
    print(f"  tightest release margin: clock at release {worst['clockAtRelease']}"
          f" vs dependency {worst['dependencyMs']}")
    assert all(r["clockAtRelease"] >= r["dependencyMs"] for r in updates)

    # pacing with a tiny compression ratio: one simulated day -> 8.64 ms
    paced_cfg = DriverConfig(pacing=True, tcr=1e-07, seed=0,
                             write_threads=4, read_threads=2)
    paced_schedule = build_schedule(sas.stream, buckets, sas.cutoff, paced_cfg)
    paced_runner = BenchmarkRunner(new_store(sas), paced_schedule, paced_cfg)
    show(paced_runner.run(), "paced run (tcr 1e-07)")


if __name__ == "__main__":
    main()
