"""Acceptance gate: one test per shipped guarantee.

Every test re-derives its expectation with standalone logic (plain BFS,
exhaustive path enumeration, transitive closures, exact rational
arithmetic) so a defect in the package cannot hide inside a shared
helper.  Each test prints one PASS/FAIL verdict line straight to the
terminal, bypassing output capture, so a full run leaves a one-line
audit trail per criterion.
"""

import bisect
import functools
import json
import math
import random
import time
from fractions import Fraction

import jsonschema
import pytest

from socialbench.acid import (
    NonVersionedReadStore,
    SplitCascadeStore,
    run_cascade_atomicity,
    run_traversal_anomaly,
)
from socialbench.datagen import GenConfig, generate_temporal_graph, split_at_cutoff
from socialbench.driver import (
    BenchmarkRunner,
    DriverConfig,
    build_schedule,
    summarize_run,
    wall_offset,
)
from socialbench.model import UpdateOperation
from socialbench.paramgen import ParamGenOptions, generate_parameters
from socialbench.pipeline import PipelineConfig, run_pipeline
from socialbench.refstore import ReferenceStore, edge_weight
from socialbench.refstore.naive import NaiveStore
from socialbench.simtime import (
    MS_PER_DAY,
    MS_PER_MINUTE,
    SIM_END,
    SIM_START,
    day_start,
    parse_day,
)

from test_refstore import (_assert_no_dangling, _assert_timelines_sound, _closure_oracle,
                           _delete_op, _gone)


def criterion(number, title):
    """Print an explicit verdict line for one acceptance criterion."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(**kwargs):
            capsys = kwargs["capsys"]
            try:
                fn(**kwargs)
            except BaseException:
                with capsys.disabled():
                    print(f"\n[criterion {number:2d}] FAIL  {title}", flush=True)
                raise
            with capsys.disabled():
                print(f"\n[criterion {number:2d}] PASS  {title}", flush=True)
        return run
    return wrap


@pytest.fixture(scope="module")
def buckets(graph, cutoff):
    return generate_parameters(graph, cutoff, ParamGenOptions(seed=5, per_day=10))


@pytest.fixture(scope="module")
def dense():
    """A denser world with an early cutoff: tens of thousands of stream ops."""
    cfg = GenConfig(seed=77, num_persons=600, cutoff_fraction=0.55, content_scale=4.0)
    g = generate_temporal_graph(cfg)
    return cfg, split_at_cutoff(g, cfg)


@pytest.fixture(scope="module")
def pipeline_200(tmp_path_factory):
    out = tmp_path_factory.mktemp("fdr")
    config = PipelineConfig(
        gen=GenConfig(seed=4242, num_persons=200),
        driver=DriverConfig(pacing=False, seed=1),
        params=ParamGenOptions(seed=9, per_day=4),
        out_dir=str(out),
        validate_stores=True,
    )
    started = time.perf_counter()
    report = run_pipeline(config)
    elapsed = time.perf_counter() - started
    return report, out, elapsed


# --- criterion 1: curated path pairs hold all day ---------------------------

def _alive_adjacency(graph, instant):
    adj = {pid: [] for pid, person in graph.persons.items()
           if person.lifecycle.alive_at(instant)}
    for edge in graph.knows.values():
        if edge.lifecycle.alive_at(instant):
            a, b = edge.pair
            if a in adj and b in adj:
                adj[a].append(b)
                adj[b].append(a)
    return adj


def _bfs_distance(adj, src, dst):
    if src not in adj or dst not in adj:
        return None
    if src == dst:
        return 0
    seen = {src}
    frontier = [src]
    dist = 0
    while frontier:
        dist += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    if v == dst:
                        return dist
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return None


@criterion(1, "curated path pairs hold their promised distance at every minute")
def test_c01_curated_pairs_hold_all_day(capsys, graph, buckets):
    started = time.perf_counter()
    lifecycles = ([p.lifecycle for p in graph.persons.values()]
                  + [e.lifecycle for e in graph.knows.values()])
    days_checked = 0
    reachable_total = 0
    unreachable_total = 0
    violations = []
    for day, bucket in sorted(buckets.items()):
        reachable = {(p["person1Id"], p["person2Id"])
                     for v in ("CR13b", "CR14b") for p in bucket.params.get(v, [])}
        unreachable = {(p["person1Id"], p["person2Id"])
                       for v in ("CR13a", "CR14a") for p in bucket.params.get(v, [])}
        if not reachable and not unreachable:
            continue
        days_checked += 1
        reachable_total += len(reachable)
        unreachable_total += len(unreachable)
        day_end = day + MS_PER_DAY
        events = sorted({t for life in lifecycles
                         for t in (life.creation, life.deletion)
                         if t is not None and day < t < day_end})
        # the graph is constant between lifecycle events, so one probe per
        # segment covers every minute mark inside it
        instants = []
        seen_segments = set()
        for minute in range(day, day_end, MS_PER_MINUTE):
            segment = bisect.bisect_right(events, minute)
            if segment not in seen_segments:
                seen_segments.add(segment)
                instants.append(minute)
        for t in instants:
            adj = _alive_adjacency(graph, t)
            for a, b in sorted(reachable):
                d = _bfs_distance(adj, a, b)
                if d != 4:
                    violations.append(("reachable", day, t, a, b, d))
            for a, b in sorted(unreachable):
                d = _bfs_distance(adj, a, b)
                if d is not None:
                    violations.append(("unreachable", day, t, a, b, d))
    assert len(graph.persons) >= 500
    assert days_checked >= 5
    assert reachable_total >= 100 and unreachable_total >= 100
    assert violations == []
    assert time.perf_counter() - started < 300


# --- criterion 2: cutoff date and conservation -------------------------------

@criterion(2, "cutoff lands on 2012-11-29 and the split conserves every entity")
def test_c02_cutoff_and_conservation(capsys, gen_config, graph, sas, cutoff):
    span = gen_config.simulation_end - gen_config.simulation_start
    truncated = day_start(gen_config.simulation_start
                          + int(span * gen_config.cutoff_fraction))
    assert cutoff == truncated == parse_day("2012-11-29")
    assert sas.cutoff == cutoff

    counts = sas.partition_counts()
    inserted = sum(1 for op in sas.stream if op.is_insert)
    assert counts["snapshot"] + inserted + counts["retired"] == graph.entity_count()
    for kind in ("persons", "knows", "forums", "messages", "likes", "members"):
        snap_keys = set(getattr(sas.snapshot, kind))
        for ident, entity in getattr(graph, kind).items():
            life = entity.lifecycle
            retired = life.deletion is not None and life.deletion < cutoff
            in_stream = not retired and life.creation >= cutoff
            assert retired + (ident in snap_keys) + in_stream == 1, (kind, ident)


# --- criterion 3: exact wall-clock offsets -----------------------------------

@criterion(3, "scheduled wall offsets are exact rational multiples of sim offsets")
def test_c03_wall_offsets_exact(capsys, sas, cutoff):
    tcr = Fraction("0.02")
    assert tcr == Fraction(1, 50)
    # one simulated second compresses to exactly twenty milliseconds
    assert wall_offset(cutoff + 1_000, cutoff, tcr) == 20

    rng = random.Random(303)
    for _ in range(500):
        sim = rng.randrange(cutoff, SIM_END + 1)
        offset = wall_offset(sim, cutoff, tcr)
        assert isinstance(offset, Fraction)
        assert offset == Fraction(sim - cutoff, 50)

    config = DriverConfig(pacing=False, frequencies={}, seed=0)
    schedule = build_schedule(sas.stream[:200], {}, cutoff, config)
    for entry in schedule.entries:
        expected = Fraction(entry.op.scheduled_time - cutoff, 50)
        assert entry.wall_offset_ms == expected


# --- criterion 4: on-time accounting -----------------------------------------

def _records(total, late, late_by_ms=5_000):
    records = []
    for i in range(total):
        delay = float(1_000 + late_by_ms) if i < late else 0.0
        records.append({"kind": "INS", "opType": "INS6",
                        "scheduledWallMs": 1_000.0 * i,
                        "actualWallMs": 1_000.0 * i + delay,
                        "latencyMs": 1.0})
    return records


@criterion(4, "on-time ratio is exact and validity flips at the 0.95 target")
def test_c04_on_time_rule(capsys):
    for scheduled, actual, on_time in ((0.0, 1_000.0, True), (0.0, 1_000.0001, False),
                                       (500.0, 400.0, True)):
        report = summarize_run([{"kind": "INS", "opType": "INS6", "scheduledWallMs": scheduled,
                                 "actualWallMs": actual, "latencyMs": 1.0}], 1.0, "paced")
        assert (report.on_time_count, report.late_count) == (on_time, not on_time)

    rng = random.Random(44)
    for _ in range(50):
        total = rng.randint(1, 400)
        late = rng.randint(0, total)
        report = summarize_run(_records(total, late), wall_seconds=1.0, mode="paced")
        assert report.late_count == late
        assert report.on_time_ratio == (total - late) / total
        assert report.valid == (report.on_time_ratio >= 0.95)

    just_valid = summarize_run(_records(20, 1), 1.0, "paced")
    assert just_valid.on_time_ratio == 0.95 and just_valid.valid
    just_late = summarize_run(_records(20, 2), 1.0, "paced")
    assert just_late.on_time_ratio == 0.90 and not just_late.valid


# --- criterion 5: dependency tracking under concurrency ----------------------

@criterion(5, "concurrent replays never release an op before its dependency")
def test_c05_dependency_tracking(capsys, sas, gen_config, dense):
    dense_cfg, dense_sas = dense
    for stream, floor in ((sas.stream, gen_config.t_safe),
                          (dense_sas.stream, dense_cfg.t_safe)):
        for op in stream:
            assert op.scheduled_time - op.dependency_time >= floor, op.op_type

    assert len(dense_sas.stream) >= 10_000
    for run_index in range(10):
        config = DriverConfig(pacing=False, frequencies={}, seed=run_index,
                              write_threads=2 + run_index % 7, read_threads=1)
        schedule = build_schedule(dense_sas.stream, {}, dense_sas.cutoff, config)
        store = ReferenceStore()
        store.bulk_load(dense_sas.snapshot)
        runner = BenchmarkRunner(store, schedule, config)
        report = runner.run()
        assert report.total_operations == len(dense_sas.stream)
        assert len(runner.log) == len(dense_sas.stream)
        premature = [r for r in runner.log if r["clockAtRelease"] < r["dependencyMs"]]
        assert premature == [], (run_index, premature[:3])
        # Writers may commit one creator's messages out of creation order.
        _assert_timelines_sound(store)


# --- criterion 6: cheapest-path weights vs exhaustive enumeration ------------

def _build_weighted_instance(rng):
    """A small random friendship graph installed through real update ops.

    Returns the store plus an independent edge->weight map covering only
    edges with at least one interaction (the only ones a cheapest-path
    traversal may use).
    """
    store = ReferenceStore()
    clock = [SIM_START + 30 * MS_PER_DAY]

    def apply(op_type, payload):
        clock[0] += 60_000
        store.execute_update(UpdateOperation(op_type, clock[0], SIM_START, payload))

    n = rng.randint(2, 12)
    people = list(range(1, n + 1))
    for pid in people:
        apply("INS1", {"id": pid, "firstName": "P", "lastName": str(pid),
                       "countryId": 1, "universityId": None, "tagInterests": []})
    apply("INS4", {"id": 900, "moderatorPersonId": people[0]})
    weights = {}
    mid = 1_000
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() >= 0.28:
                continue
            a, b = people[i], people[j]
            apply("INS8", {"person1Id": a, "person2Id": b})
            interactions = rng.randint(0, 5)
            if interactions == 0:
                continue  # friends who never interacted: edge unusable
            apply("INS6", {"id": mid, "creatorPersonId": a,
                           "containerForumId": 900, "countryId": 1, "tagIds": []})
            post = mid
            mid += 1
            for _ in range(interactions):
                apply("INS7", {"id": mid, "creatorPersonId": b,
                               "replyToMessageId": post, "countryId": 1,
                               "tagIds": []})
                mid += 1
            weights[(a, b)] = edge_weight(interactions)
    src, dst = rng.choice(people), rng.choice(people)
    return store, weights, src, dst


def _cheapest_by_enumeration(weights, src, dst):
    """Minimum path weight by exhaustive simple-path search."""
    if src == dst:
        return 0
    adj = {}
    for (a, b), w in weights.items():
        adj.setdefault(a, []).append((b, w))
        adj.setdefault(b, []).append((a, w))
    best = [None]
    on_path = {src}

    def walk(u, acc):
        if best[0] is not None and acc >= best[0]:
            return
        for v, w in adj.get(u, ()):
            if v == dst:
                if best[0] is None or acc + w < best[0]:
                    best[0] = acc + w
            elif v not in on_path:
                on_path.add(v)
                walk(v, acc + w)
                on_path.discard(v)

    walk(src, 0)
    return best[0]


@criterion(6, "interaction weights and cheapest paths match brute force")
def test_c06_cheapest_path_brute_force(capsys):
    def rounded(x):
        return math.floor(x + 0.5) if x >= 0 else -math.floor(-x + 0.5)

    assert edge_weight(0) == 40
    assert edge_weight(1) == 39
    checked = list(range(0, 2_001))
    sample_rng = random.Random(606)
    checked += [sample_rng.randrange(0, 10**6 + 1) for _ in range(2_000)]
    checked.append(10**6)
    for n in checked:
        assert edge_weight(n) == max(rounded(40.0 - math.sqrt(n)), 1), n

    rng = random.Random(1_406)
    mismatches = []
    for case in range(1_000):
        store, weights, src, dst = _build_weighted_instance(rng)
        expected = _cheapest_by_enumeration(weights, src, dst)
        got = store.execute_query("CR14", {"person1Id": src, "person2Id": dst})
        if expected is None:
            if got is not None:
                mismatches.append((case, "reachable", got))
        elif got is None or got["weight"] != expected:
            mismatches.append((case, expected, got))
    assert mismatches == []


# --- criterion 7: reference store vs naive evaluator --------------------------

@criterion(7, "reference store matches the naive evaluator everywhere probed")
def test_c07_query_oracle_equivalence(capsys, sas, pipeline_200):
    ref = ReferenceStore()
    naive = NaiveStore()
    ref.bulk_load(sas.snapshot)
    naive.bulk_load(sas.snapshot)
    for op in sas.stream:
        ref.execute_update(op)
        naive.execute_update(op)

    state = ref.state_at()
    persons = sorted(state["persons"])
    messages = sorted(state["messages"])
    countries = sorted({p.country_id for p in state["persons"].values()})
    rng = random.Random(20_260_819)
    for _ in range(100):
        p1, p2 = rng.choice(persons), rng.choice(persons)
        probes = [
            ("CR3", {"personId": p1,
                     "countryXId": rng.choice(countries),
                     "countryYId": rng.choice(countries),
                     "startDate": rng.randrange(SIM_START, SIM_END - 60 * MS_PER_DAY),
                     "durationDays": rng.randint(1, 60)}),
            ("CR13", {"person1Id": p1, "person2Id": p2}),
            ("SR2", {"personId": rng.choice(persons)}),
            ("SR6", {"messageId": rng.choice(messages)}),
        ]
        for variant, params in probes:
            assert ref.execute_query(variant, params) == \
                naive.execute_query(variant, params), (variant, params)
        cheap_ref = ref.execute_query("CR14", {"person1Id": p1, "person2Id": p2})
        cheap_naive = naive.execute_query("CR14", {"person1Id": p1, "person2Id": p2})
        assert (cheap_ref is None) == (cheap_naive is None)
        if cheap_ref is not None:
            assert cheap_ref["weight"] == cheap_naive["weight"]

    report, _out, _elapsed = pipeline_200
    validation = report["validation"]
    assert validation is not None
    assert validation["queries"] > 0
    assert validation["diffCount"] == 0


# --- criterion 8: cascade integrity after full replay -------------------------

@criterion(8, "full replay leaves no dangling refs; cascades equal closures")
def test_c08_cascade_integrity(capsys, sas):
    store = ReferenceStore()
    store.bulk_load(sas.snapshot)
    for op in sas.stream:
        store.execute_update(op)
    _assert_no_dangling(store.state_at())

    rng = random.Random(88)
    clock = [SIM_END + MS_PER_DAY]
    plan = ["messages"] * 50 + ["persons"] * 25 + ["forums"] * 15 + ["knows"] * 10
    for kind in plan:
        state = store.state_at()
        key = rng.choice(sorted(state[kind]))
        if kind == "knows":
            expected = [("knows", key)]
        else:
            expected = _closure_oracle(state, kind, key)

        op_type, payload = _delete_op(state, kind, key)
        clock[0] += 60_000
        store.execute_update(UpdateOperation(op_type, clock[0], SIM_START, payload))

        after = store.state_at()
        assert _gone(state, after) == set(expected), (kind, key)
        _assert_no_dangling(after)


# --- criterion 9: isolation scenarios ------------------------------------------

@criterion(9, "isolation holds on the reference store and faulty stores fail")
def test_c09_isolation_scenarios(capsys):
    for seed in range(100):
        result = run_traversal_anomaly(seed=seed)
        assert result.passed, (seed, result.violations)
        result = run_cascade_atomicity(seed=seed)
        assert result.passed, (seed, result.violations)

    forced = run_traversal_anomaly(store_factory=NonVersionedReadStore, seed=0,
                                   delete_after_hop=1, insert_after_hop=4)
    assert not forced.passed
    loose_reads = sum(
        1 for seed in range(100)
        if not run_traversal_anomaly(store_factory=NonVersionedReadStore,
                                     seed=seed).passed)
    assert loose_reads > 0
    torn_cascades = sum(
        1 for seed in range(100)
        if not run_cascade_atomicity(store_factory=SplitCascadeStore,
                                     seed=seed).passed)
    assert torn_cascades > 0


# --- criterion 10: workload mix and mutation ratios ---------------------------

@criterion(10, "query:insert mix and delete:insert ratio stay in band")
def test_c10_mix_and_ratios(capsys, sas, cutoff, buckets):
    config = DriverConfig(pacing=False, seed=3)
    schedule = build_schedule(sas.stream, buckets, cutoff, config)
    counts = schedule.class_counts()
    assert counts["INS"] > 0 and counts["CR"] > 0
    mix = counts["CR"] / counts["INS"]
    assert 0.3 <= mix <= 0.5, mix  # 8:20 target, 25 percent tolerance

    # One 500-person world has a handful of deletes, so the churn band is
    # checked over ten such worlds pooled, which holds whatever the
    # shared world's seed.
    deletes = inserts = 0
    for seed in range(1, 11):
        config = GenConfig(seed=seed, num_persons=500)
        partition = split_at_cutoff(generate_temporal_graph(config), config).partition_counts()
        deletes += partition["deletes"]
        inserts += partition["inserts"]
    churn = deletes / inserts
    assert 0.005 <= churn <= 0.02, churn


# --- criterion 11: end-to-end smoke -------------------------------------------

_REPORT_SCHEMA = {
    "type": "object",
    "required": ["configuration", "dataStats", "schedule", "run", "validation",
                 "environment", "stages", "passed"],
    "properties": {
        "configuration": {
            "type": "object",
            "required": ["datagen", "driver", "paramgen"],
        },
        "dataStats": {
            "type": "object",
            "required": ["nodes", "edges", "collections", "cutoff", "cutoffDate",
                         "snapshotEntities", "insertOperations", "deleteOperations",
                         "retiredEntities", "deleteInsertRatio"],
            "properties": {"nodes": {"type": "integer", "minimum": 1},
                           "deleteInsertRatio": {"type": "number"}},
        },
        "schedule": {
            "type": "object",
            "required": ["classTotals", "entries", "warnings"],
        },
        "run": {
            "type": "object",
            "required": ["mode", "totalOperations", "classTotals",
                         "variantLatencyMs", "delayMs", "delayMsByClass", "onTime",
                         "wallSeconds", "throughputOpsPerSec", "deferrals",
                         "scheduleExhausted", "warnings"],
            "properties": {
                "delayMsByClass": {
                    "type": "object",
                    "propertyNames": {"enum": ["CR", "SR", "INS", "DEL"]},
                },
                "onTime": {
                    "type": "object",
                    "required": ["count", "late", "ratio", "target", "valid"],
                    # No verdict (null) when the run was not paced.
                    "properties": {"valid": {"type": ["boolean", "null"]}},
                },
                "mode": {"enum": ["paced", "throughput"]},
            },
        },
        "validation": {"type": ["object", "null"]},
        "environment": {
            "type": "object",
            "required": ["platform", "python", "machine", "cpuCount", "timestamp"],
        },
        "stages": {
            "type": "array",
            "minItems": 4,
            "items": {"type": "object", "required": ["name", "seconds"]},
        },
        "passed": {"type": "boolean"},
    },
}


@criterion(11, "200-person pipeline finishes fast with a schema-valid report")
def test_c11_end_to_end_smoke(capsys, pipeline_200):
    report, out, elapsed = pipeline_200
    assert elapsed < 600, elapsed
    assert report["passed"] is True

    on_disk = json.loads((out / "fdr.json").read_text(encoding="utf-8"))
    jsonschema.validate(on_disk, _REPORT_SCHEMA)
    assert on_disk["configuration"]["datagen"]["num_persons"] == 200
    # triggered short reads run on top of the scheduled entries
    assert on_disk["run"]["totalOperations"] >= on_disk["schedule"]["entries"]
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    assert summary.rstrip().endswith("overall: PASS")
