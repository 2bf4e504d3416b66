"""socialbench benchmark: one workload per invocation.

    python3 bench/run.py --workload paths --seed 1 --seconds 55 --trace 0

After a warm-up on a tiny world, the run repeats whole rounds while the
next one still fits in --seconds, and always does at least MIN_ROUNDS.
A round sets the world up, replays the schedule, ingests the update
stream through BenchmarkRunner, cross-validates against NaiveStore and
makes a paced mixed run; every phase's outputs are checked.  The last
line of standard output is one JSON object: correct, attempted, failed
and metrics.  --trace 0 reports the end-to-end metrics, with each
phase's time scaled to a reference machine speed (see calibration.py);
--trace 1 reports the per-layer metrics from spans taken around calls
into the package and writes the spans to bench/out/.  The package is
imported from the src/ directory next to this one.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

from checks import (Ledger, check_path_guarantees, check_state, check_with_networkx,
                    count_divergences, path_samples)
from calibration import EDGE_SAMPLES, HANDOFF_REFERENCE_S, REFERENCE_S, Stopwatch, sample
from tracing import TracedStore, Tracer, self_times
from workloads import MIN_ROUNDS, TINY, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

median = statistics.median


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def tail_percentile(count: int) -> float | None:
    """The highest percentile with at least ten samples beyond it."""
    for p in (99.9, 99.5, 99.0, 98.0, 95.0, 90.0):
        if count * (1.0 - p / 100.0) >= 10:
            return p
    return None


def _sum_self(spans, selfs, prefix: str) -> float:
    return sum(s for span, s in zip(spans, selfs) if span[0].startswith(prefix))


def _p50_us(values: list[float]) -> float:
    # A stream without the operation has nothing to time.
    return median(values) * 1e6 if values else 0.0


class Layers:
    """Per-layer figures gathered from the spans of a traced run."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.setup: dict[str, list[float]] = {}
        self.replay_lat: dict[str, list[float]] = {}
        self.replay_self: dict[str, list[float]] = {}
        self.replay_rate: list[float] = []
        self.validate: dict[str, list[float]] = {}
        self.mark = 0

    def start(self) -> None:
        self.mark = len(self.tracer.spans)

    def _since(self):
        spans = self.tracer.spans[self.mark:]
        # self_times indexes parents from the start of the whole list.
        rebased = [(n, s, e, p - self.mark if p >= self.mark else -1, o)
                   for n, s, e, p, o in spans]
        return rebased, self_times(rebased)

    def after_setup(self) -> None:
        spans, _ = self._since()
        for name, start, end, _p, _o in spans:
            self.setup.setdefault(name, []).append(end - start)

    def after_replay(self, ops_per_s: float) -> None:
        spans, selfs = self._since()
        for name, start, end, _p, _o in spans:
            if name.startswith("refstore.store.execute_"):
                key = name.rsplit(".", 1)[1]
                self.replay_lat.setdefault(key, []).append(end - start)
        for metric, prefix in (("refstore.query_s", "refstore.store.execute_query"),
                               ("refstore.update_s", "refstore.store.execute_update")):
            self.replay_self.setdefault(metric, []).append(_sum_self(spans, selfs, prefix))
        self.replay_rate.append(ops_per_s)

    def after_validate(self) -> None:
        spans, selfs = self._since()
        for metric, prefix in (("naive.query_s", "refstore.naive.execute_query"),
                               ("naive.update_s", "refstore.naive.execute_update"),
                               ("validate.refstore_s", "refstore.store."),
                               ("driver.validate_self_s", "driver.cross_validate")):
            self.validate.setdefault(metric, []).append(_sum_self(spans, selfs, prefix))

    def metrics(self, world, first_replay, plain_rates, ingest_s, direct_s,
                dispatch_delay_ms, read_wait_ms) -> dict:
        setup = {name: median(values) for name, values in self.setup.items()}
        lat = self.replay_lat
        graph = world.graph
        inserts = [v for k, vs in lat.items() if k.startswith("INS") for v in vs]
        deletes = [v for k, vs in lat.items() if k.startswith("DEL") for v in vs]
        updates = len(world.sas.stream)
        traced_rate = median(self.replay_rate)
        out = {
            "datagen.generate_s": (setup["datagen.generate_temporal_graph"], "s"),
            "datagen.split_s": (setup["datagen.split_at_cutoff"], "s"),
            "datagen.entities_per_s": (graph.entity_count()
                                       / setup["datagen.generate_temporal_graph"], "1/s"),
            "paramgen.generate_s": (setup["paramgen.generate_parameters"], "s"),
            "paramgen.s_per_day": (setup["paramgen.generate_parameters"] / world.days, "s"),
            "paramgen.days": (world.days, "count"),
            "driver.schedule_s": (setup["driver.build_schedule"], "s"),
            "refstore.bulk_load_s": (setup["refstore.store.bulk_load"], "s"),
        }
        for variant in ("CR3a", "CR3b", "CR13a", "CR13b", "CR14a", "CR14b", "SR2", "SR6"):
            out[f"refstore.{variant}_p50_us"] = (_p50_us(lat.get(variant, [])), "us")
        out.update({
            "refstore.insert_p50_us": (_p50_us(inserts), "us"),
            "refstore.delete_p50_us": (_p50_us(deletes), "us"),
            "refstore.delete_person_p50_us": (_p50_us(lat.get("DEL1", [])), "us"),
            "refstore.cascade_nodes": (first_replay.cascade_nodes, "count"),
            "refstore.query_s": (median(self.replay_self["refstore.query_s"]), "s"),
            "refstore.update_s": (median(self.replay_self["refstore.update_s"]), "s"),
            "driver.update_overhead_us": ((median(ingest_s) - median(direct_s))
                                          / updates * 1e6, "us"),
            "driver.dispatch_delay_p50_ms": (dispatch_delay_ms, "ms"),
            "driver.read_queue_wait_p50_ms": (read_wait_ms, "ms"),
        })
        for metric, values in self.validate.items():
            out[metric] = (median(values), "s")
        entries = world.schedule.entries
        out.update({
            "schedule.entries": (len(entries), "count"),
            "schedule.complex_reads": (sum(e.query is not None for e in entries), "count"),
            "replay.short_reads": (first_replay.short_reads, "count"),
            "stream.deletes": (sum(not op.is_insert for op in world.sas.stream), "count"),
            "trace.replay_ops_per_s": (traced_rate, "1/s"),
            "trace.overhead_pct": ((1.0 - traced_rate / median(plain_rates)) * 100.0, "%"),
        })
        return out


def run_workload(workload, seed: int, seconds: float, traced: bool,
                 store_cls=None, log=print) -> dict:
    """One run; returns the result object printed as the last line.

    Rounds repeat while the next one fits in `seconds` (and at least
    MIN_ROUNDS of them run).  Each round does the same work: set-up,
    replay, ingest, cross-validation and a paced run, so every metric
    is sampled across the whole run rather than in one stretch of it.
    Every phase is timed by a Stopwatch; the end-to-end metrics are its
    reference times, the traced run's layer metrics are wall times.
    """
    from socialbench import NaiveStore, ReferenceStore
    from socialbench.driver import derive_triggers

    from phases import (configs, direct, direct_pass, ingest, ingest_schedule, paced,
                        replay, setup, validate)

    store_cls = store_cls or ReferenceStore
    ledger = Ledger()
    tracer = Tracer() if traced else None
    call = tracer.call if traced else direct
    layers = Layers(tracer) if traced else None
    op_of: dict = {}

    def wrap(store, layer="refstore.store"):
        return TracedStore(store, tracer, layer, op_of) if traced else store

    def state(what, store, world, instant, truths):
        check_state(ledger, what, store, world.graph, instant, truths)

    def watch() -> Stopwatch:
        # Calibration inside a phase would land inside the traced spans.
        return Stopwatch(ticks=not traced)

    # Warm up: bytecode, caches and lazy imports stay out of every timing.
    warm = setup(configs(TINY, seed), ReferenceStore)
    replay(warm, warm.store)
    sample(EDGE_SAMPLES)
    if workload.networkx_samples:
        import networkx  # noqa: F401
    del warm

    cfg = configs(workload, seed)
    vworld = None
    if workload.validate_persons is not None:
        vworld = setup(configs(workload, seed, workload.validate_persons), store_cls)
    # The dataset is the same in every round, so its ground truth is too.
    truths: dict = {}
    vtruths = truths if vworld is None else {}
    nx_expected: dict = {}

    replay_ops, direct_s, paced_runs, plain_rates = [], [], [], []
    watches: list[tuple[str, Stopwatch]] = []
    first_replay = world = None
    rounds, longest = 0, 0.0
    deadline = time.perf_counter() + seconds
    while rounds < MIN_ROUNDS or time.perf_counter() + longest <= deadline:
        round_start, first_watch = time.perf_counter(), len(watches)
        world = None
        gc.collect()

        # Set-up, timed from datagen through the bulk load.
        if traced:
            layers.start()
        with watch() as w:
            world = setup(cfg, store_cls, call, w.tick)
        watches.append(("setup", w))
        if traced:
            layers.after_setup()
            op_of.clear()
            op_of.update((id(e.op), e.seq) for e in world.schedule.entries
                         if e.op is not None)
        last = world.last_instant

        # Sequential replay of the whole schedule, first on the set-up store.
        store = world.store
        for _ in range(workload.replay_reps):
            store = store or world.new_store(store_cls)
            gc.collect()
            with watch() as w:
                result = replay(world, store, tick=w.tick)
            watches.append(("replay", w))
            replay_ops.append(result.ops)
            first_replay = first_replay or result
            ledger.attempted += result.ops
            ledger.fail("replay.exception", result.errors)
            check_path_guarantees(ledger, result.answers, cfg.params.hop_count)
            state("replay.state", store, world, last, truths)
            if workload.networkx_samples:
                check_with_networkx(ledger, world.graph,
                                    path_samples(world.schedule, result.answers,
                                                 workload.networkx_samples),
                                    nx_expected)
            store = None
        if traced:
            # The overhead is taken against a plain replay on a store as
            # freshly loaded as the traced one: the set-up store's replay
            # runs at another speed.
            store = world.new_store(store_cls)
            gc.collect()
            with watch() as w:
                result = replay(world, store)
            plain_rates.append(result.ops / w.wall_s)
            store = wrap(world.new_store(store_cls))
            gc.collect()
            layers.start()
            with watch() as w:
                result = replay(
                    world, store,
                    lambda *a: tracer.call("driver.derive_triggers", derive_triggers, *a),
                    tracer)
            layers.after_replay(result.ops / w.wall_s)

        # Update-only ingest through BenchmarkRunner.
        ingest_cfg, ingest_plan = ingest_schedule(world)
        for _ in range(workload.ingest_reps):
            store = world.new_store(store_cls)
            gc.collect()
            ledger.attempted += len(world.sas.stream)
            try:
                with Stopwatch(ticks=False) as w:
                    ingest(ingest_cfg, ingest_plan, store, call)
            except Exception as exc:
                ledger.fail("ingest.exception", 1, repr(exc))
            else:
                watches.append(("ingest", w))
            state("ingest.state", store, world, last, truths)
            if traced:
                direct_s.append(direct_pass(world.sas.stream, world.new_store(store_cls)))

        # Cross-validation against NaiveStore.
        checked = vworld or world
        ref = wrap(checked.new_store(store_cls))
        naive = wrap(checked.new_store(NaiveStore), "refstore.naive")
        gc.collect()
        if traced:
            layers.start()
        try:
            with watch() as w:
                answers_a, answers_b = validate(checked, ref, naive, call, w.tick)
        except Exception as exc:
            ledger.fail("validate.exception", 1, repr(exc))
        else:
            watches.append(("validate", w))
            ledger.attempted += len(answers_a.answers)
            count_divergences(ledger, answers_a.answers, answers_b.answers)
        if traced:
            layers.after_validate()
        for what, store in (("validate.state", ref), ("validate.naive_state", naive)):
            state(what, store, checked, checked.last_instant, vtruths)
        del ref, naive

        # Paced mixed run below capacity.
        store = wrap(world.new_store(store_cls))
        gc.collect()
        try:
            with Stopwatch(ticks=False) as w:
                run = paced(world, store, call)
        except Exception as exc:
            ledger.attempted += 1
            ledger.fail("paced.exception", 1, repr(exc))
        else:
            watches.append(("paced", w))
            paced_runs.append(run)
            ledger.attempted += run.ops
            state("paced.state", store, world, run.last_instant, truths)
        del store
        rounds += 1
        longest = max(longest, time.perf_counter() - round_start)
        log(f"  round {rounds}: " + ", ".join(
            f"{name} {w.wall_s:.3f} s x{w.slowdown:.3f}" for name, w in watches[first_watch:])
            + " (wall time, slowdown)")

    # A phase sampled throughout is scaled by its own loops; the ingest
    # and the paced runs, which run on the driver's threads and cannot
    # stop, by the run's median hand-off.
    loop_s = [t for _, w in watches for t in w.samples]
    handoff_s = [t for _, w in watches for t in w.handoffs]
    run_slowdown = median(loop_s) / REFERENCE_S
    handoff_slowdown = median(handoff_s) / HANDOFF_REFERENCE_S if handoff_s else 1.0

    def phase_s(w: Stopwatch) -> float:
        if traced:
            return w.wall_s
        return w.reference_s if w.ticks else w.wall_s / handoff_slowdown

    def times(name: str) -> list[float]:
        return [phase_s(w) for n, w in watches if n == name]

    scale = 1.0 if traced else 1.0 / handoff_slowdown
    response_ms = [r * scale for run in paced_runs for r in run.response_ms]
    read_wait_ms = [(r - e) * scale for run in paced_runs
                    for r, e in zip(run.response_ms, run.execute_ms)]
    dispatch_ms = [run.dispatch_delay_p50_ms * scale for run in paced_runs]
    setup_s, ingest_s, validate_s = times("setup"), times("ingest"), times("validate")
    rates = [ops / s for ops, s in zip(replay_ops, times("replay"))]

    slowdowns = [w.slowdown for _, w in watches if w.ticks]
    log(f"workload {workload.name} seed {seed}: {rounds} rounds, longest {longest:.1f} s; "
        f"calibration loop median {median(loop_s) * 1e3:.3f} ms against "
        f"{REFERENCE_S * 1e3:g} ms (run slowdown {run_slowdown:.3f}"
        + (f", sampled phases {min(slowdowns):.3f}-{max(slowdowns):.3f}" if slowdowns else "")
        + f"); hand-off median {median(handoff_s) * 1e3:.3f} ms against "
        f"{HANDOFF_REFERENCE_S * 1e3:g} ms (slowdown {handoff_slowdown:.3f})")
    if not traced:
        walls = [w.wall_s for n, w in watches if n == "ingest"]
        raw_p50 = median(percentile(run.response_ms, 50) for run in paced_runs)
        log(f"  unscaled: ingest {len(world.sas.stream) / median(walls):.1f} ops/s, "
            f"CR p50 {raw_p50:.4f} ms; scaled by the run's loop instead: ingest "
            f"{len(world.sas.stream) / median(walls) * run_slowdown:.1f} ops/s, "
            f"CR p50 {raw_p50 / run_slowdown:.4f} ms")
    tail = tail_percentile(len(response_ms))
    log(f"  paced runs: {len(response_ms)} complex reads, response p50 "
        f"{percentile(response_ms, 50):.3f} ms, p90 {percentile(response_ms, 90):.3f} ms"
        + (f", p{tail:g} {percentile(response_ms, tail):.3f} ms" if tail else "")
        + f", max {max(response_ms):.3f} ms" + ("" if traced else " (reference)"))
    if traced:
        metrics = layers.metrics(world, first_replay, plain_rates, ingest_s, direct_s,
                                 median(dispatch_ms), median(read_wait_ms))
        metrics["bench.calibration_ms"] = (median(loop_s) * 1e3, "ms")
        path = OUT / f"trace-{workload.name}-seed{seed}.jsonl"
        tracer.write(path)
        log(f"  {len(tracer.spans)} spans written to {path.relative_to(HERE.parent)}")
    else:
        metrics = {
            "setup_s": (median(setup_s), "s"),
            "replay_ops_per_s": (median(rates), "1/s"),
            "ingest_ops_per_s": (len(world.sas.stream) / median(ingest_s), "1/s"),
            # The median round's: one stalled paced run moves it little.
            "cr_p50_ms": (median(percentile(run.response_ms, 50) * scale
                                 for run in paced_runs), "ms"),
            "validate_s": (median(validate_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
    for name, (value, unit) in metrics.items():
        log(f"  {name:34s} {value:14.4f} {unit}")
    log(f"  operations attempted {ledger.attempted}, failed {ledger.failed}"
        + "".join(f"; {what} {n}" for what, n in sorted(ledger.failures.items())))
    for note in ledger.notes:
        log(f"  failure: {note}")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "socialbench" / "__init__.py").is_file():
        print(f"bench: the socialbench package is not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
