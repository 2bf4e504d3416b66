"""The phases of a benchmark run, each over work fixed by the seed.

setup builds the world: generator, cutoff split, paramgen, schedule and
a bulk-loaded ReferenceStore.  The other phases run on a freshly loaded
store each: a sequential replay of the schedule, an update-only ingest
through BenchmarkRunner, a direct pass over the same updates, a paced
mixed run and a cross-validation against NaiveStore.

Every phase calls into the package through `call(name, fn, *args)`:
a plain call, or a span when the run is traced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from socialbench import (
    BenchmarkRunner,
    DriverConfig,
    GenConfig,
    ParamGenOptions,
    build_schedule,
    cross_validate,
    generate_parameters,
    generate_temporal_graph,
    split_at_cutoff,
)
from socialbench.driver import DEFAULT_FREQUENCIES, derive_triggers
from socialbench.rng import derive_rng

from workloads import DATASET_SEED, READ_THREADS, WRITE_THREADS, Workload

PATH_QUERIES = ("CR13", "CR14")


def direct(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _no_tick() -> None:
    pass


@dataclass(frozen=True)
class Configs:
    gen: GenConfig
    params: ParamGenOptions
    driver: DriverConfig


def configs(workload: Workload, seed: int, persons: int | None = None) -> Configs:
    """The seed drives the run's randomness: which short reads trigger.

    The dataset and its curated parameters are fixed per workload, as a
    benchmark's scale factor and parameter files are: their cost then
    does not change from seed to seed.
    """
    gen = GenConfig(seed=DATASET_SEED, num_persons=persons or workload.persons,
                    cutoff_fraction=workload.cutoff_fraction,
                    degree_exponent=workload.degree_exponent,
                    content_scale=workload.content_scale,
                    person_deletion_rate=workload.person_deletion_rate)
    driver = DriverConfig(
        tcr=workload.paced_tcr, read_threads=READ_THREADS,
        write_threads=WRITE_THREADS, seed=seed, window_secs=workload.paced_window_s,
        frequencies=dict(DEFAULT_FREQUENCIES))
    return Configs(gen, ParamGenOptions(seed=DATASET_SEED), driver)


@dataclass
class World:
    cfg: Configs
    graph: object
    sas: object
    days: int
    schedule: object
    store: object

    @property
    def snapshot(self):
        return self.sas.snapshot

    @property
    def last_instant(self) -> int:
        return max(op.scheduled_time for op in self.sas.stream)

    def new_store(self, store_cls):
        store = store_cls(delete_forums_of_deleted_moderator=(
            self.cfg.gen.delete_forums_of_deleted_moderator))
        store.bulk_load(self.snapshot)
        return store


def setup(cfg: Configs, store_cls, call=direct, tick=_no_tick) -> World:
    """Generate, split, curate, schedule and bulk-load: what setup_s times.

    tick() is called between the steps.
    """
    graph = call("datagen.generate_temporal_graph", generate_temporal_graph, cfg.gen)
    tick()
    sas = call("datagen.split_at_cutoff", split_at_cutoff, graph, cfg.gen)
    tick()
    buckets = call("paramgen.generate_parameters", generate_parameters, graph,
                   sas.cutoff, cfg.params, simulation_end=cfg.gen.simulation_end)
    tick()
    schedule = call("driver.build_schedule", build_schedule, sas.stream, buckets,
                    sas.cutoff, cfg.driver)
    tick()
    store = store_cls(delete_forums_of_deleted_moderator=(
        cfg.gen.delete_forums_of_deleted_moderator))
    call("refstore.store.bulk_load", store.bulk_load, sas.snapshot)
    return World(cfg, graph, sas, len(buckets), schedule, store)


# -- sequential replay ------------------------------------------------------

@dataclass
class Replay:
    ops: int
    short_reads: int
    cascade_nodes: int
    errors: int
    answers: list  # (entry position, variant, params, result) of path queries


def replay(world: World, store, derive=derive_triggers, tracer=None,
           tick=_no_tick) -> Replay:
    """Run the whole schedule in order on this thread.

    Triggered short reads follow their complex read at once, derived as
    cross_validate derives them, so the work is the same on every run.
    tick() is called between entries; the caller times the replay.
    """
    driver = world.cfg.driver
    seed, triggers = driver.seed, driver.triggers
    short_reads = cascade_nodes = errors = 0
    answers = []

    def run_query(variant, params, depth, key):
        nonlocal short_reads
        if depth:
            short_reads += 1
        result = store.execute_query(variant, params)
        rng = derive_rng(seed, *key)
        for ordinal, (child, child_params, child_depth) in enumerate(
                derive(variant, params, result, rng, triggers, depth)):
            run_query(child, child_params, child_depth, key + (ordinal,))
        return result

    entries = world.schedule.entries
    for pos, entry in enumerate(entries):
        tick()
        if tracer is not None:
            tracer.op = entry.seq
        try:
            if entry.op is not None:
                cascade_nodes += store.execute_update(entry.op).get("cascadeNodes", 0)
            else:
                query = entry.query
                result = run_query(query.variant, query.params, query.depth, (entry.seq,))
                if query.variant.startswith(PATH_QUERIES):
                    answers.append((pos, query.variant, query.params, result))
        except Exception:  # a store fault is a failed operation; keep replaying
            errors += 1
    if tracer is not None:
        tracer.op = None
    return Replay(len(entries) + short_reads, short_reads, cascade_nodes, errors, answers)


# -- update-only ingest ------------------------------------------------------

def ingest_schedule(world: World):
    """The update stream alone, unpaced, with no complex reads."""
    config = replace(world.cfg.driver, frequencies={}, pacing=False, window_secs=None)
    return config, build_schedule(world.sas.stream, {}, world.sas.cutoff, config)


def ingest(config, schedule, store, call=direct) -> None:
    """BenchmarkRunner applies the stream with one writer; the caller times it."""
    runner = BenchmarkRunner(store, schedule, config)
    call("driver.BenchmarkRunner.run", runner.run)


def direct_pass(stream, store) -> float:
    """Seconds execute_update alone takes over the same stream."""
    start = time.perf_counter()
    for op in stream:
        store.execute_update(op)
    return time.perf_counter() - start


# -- paced mixed run ----------------------------------------------------------

class _Clocked:
    """Delegates to a store, noting when each complex read started and ended."""

    def __init__(self, inner):
        self._inner = inner
        self.reads: list[tuple[str, float, float]] = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def execute_query(self, variant, params, snapshot=None):
        start = time.monotonic()
        result = self._inner.execute_query(variant, params, snapshot)
        if variant.startswith("CR"):
            self.reads.append((variant, start, time.monotonic()))
        return result


@dataclass
class Paced:
    response_ms: list[float]   # from each complex read's due instant to its end
    execute_ms: list[float]
    dispatch_delay_p50_ms: float
    ops: int
    last_instant: int


def paced(world: World, store, call=direct) -> Paced:
    """Open loop at a fixed tcr, one reader and one writer.

    With one reader, complex reads run in schedule order, so the k-th
    one finished is the k-th complex read dispatched.
    """
    config = world.cfg.driver
    window = config.window_secs
    clocked = _Clocked(store)
    runner = BenchmarkRunner(clocked, world.schedule, config)
    run_start = time.monotonic()
    report = call("driver.BenchmarkRunner.run", runner.run)
    due = [(e.query.variant, float(e.wall_offset_ms) / 1000.0)
           for e in world.schedule.entries if e.query is not None
           and (window is None or float(e.wall_offset_ms) / 1000.0 <= window)]
    if [v for v, _ in due] != [v for v, _, _ in clocked.reads]:
        raise RuntimeError("complex reads finished out of schedule order")
    response = [(end - run_start - due_s) * 1000.0
                for (_, due_s), (_, _, end) in zip(due, clocked.reads)]
    execute = [(end - start) * 1000.0 for _, start, end in clocked.reads]
    applied = [e.op.scheduled_time for e in world.schedule.entries if e.op is not None
               and (window is None or float(e.wall_offset_ms) / 1000.0 <= window)]
    return Paced(response, execute, report.delay_ms.get("p50", 0.0),
                 report.total_operations, max(applied))


# -- cross-validation ---------------------------------------------------------

class Recording:
    """Delegates to a store, keeping every answer it gives in order.

    tick() is called before each update and query.
    """

    def __init__(self, inner, tick=_no_tick):
        self._inner = inner
        self._tick = tick
        self.answers: list[tuple[str, object]] = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def execute_update(self, op):
        self._tick()
        result = self._inner.execute_update(op)
        self.answers.append((op.op_type, result))
        return result

    def execute_query(self, variant, params, snapshot=None):
        self._tick()
        result = self._inner.execute_query(variant, params, snapshot)
        self.answers.append((variant, result))
        return result


def validate(world: World, store_a, store_b, call=direct,
             tick=_no_tick) -> tuple[Recording, Recording]:
    """cross_validate over the whole schedule; both answer logs.

    The caller times it; tick() is called before each call into store_a.
    """
    a, b = Recording(store_a, tick), Recording(store_b)
    call("driver.cross_validate", cross_validate, a, b, world.schedule, world.cfg.driver)
    return a, b
