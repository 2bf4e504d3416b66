"""Schedule construction, gating clock, runner, stats, and validation."""

import logging
import random
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialbench.datagen import GenConfig, generate_temporal_graph, split_at_cutoff
from socialbench.driver import (
    BenchmarkRunner,
    DriverConfig,
    GlobalClock,
    QueryInstance,
    Schedule,
    ScheduleEntry,
    TriggerConfig,
    build_schedule,
    compute_stats,
    cross_validate,
    derive_triggers,
    percentile,
    summarize_run,
    wall_offset,
)
from socialbench.driver.validate import MAX_DIFFS_PER_VARIANT
from socialbench.errors import ConfigInvalid, MissingBucket
from socialbench.model import DELETE_OPS, INSERT_OPS, UpdateOperation
from socialbench.paramgen import ParamGenOptions, ParameterBucket, generate_parameters
from socialbench.paramgen.buckets import QUERY_VARIANTS
from socialbench.refstore import NaiveStore, ReferenceStore
from socialbench.simtime import MS_PER_DAY, SIM_START, day_date, day_start


class TestWallOffsets:
    def test_one_sim_second_is_twenty_ms(self):
        tcr = Fraction("0.02")
        assert wall_offset(SIM_START + 1_000, SIM_START, tcr) == 20
        assert wall_offset(SIM_START + 1_000, SIM_START, tcr) == Fraction(20, 1)

    def test_tcr_string_conversion_is_exact(self):
        assert Fraction(str(0.02)) == Fraction(1, 50)
        assert Fraction(str(0.1)) == Fraction(1, 10)

    @given(st.integers(min_value=0, max_value=10**12),
           st.integers(min_value=0, max_value=10**12))
    @settings(max_examples=200, deadline=None)
    def test_offsets_are_linear(self, a, b):
        tcr = Fraction(1, 50)
        assert (wall_offset(SIM_START + a + b, SIM_START, tcr)
                == wall_offset(SIM_START + a, SIM_START, tcr)
                + wall_offset(SIM_START + b, SIM_START, tcr))

    def test_no_rounding_below_a_millisecond(self):
        tcr = Fraction(1, 50)
        assert wall_offset(SIM_START + 1, SIM_START, tcr) == Fraction(1, 50)
        assert wall_offset(SIM_START + 49, SIM_START, tcr) < 1


def _ins_op(t, dep=SIM_START, ident=0):
    return UpdateOperation("INS1", t, dep, {"id": ident, "firstName": "A",
                                            "lastName": "B", "countryId": 1,
                                            "universityId": None,
                                            "tagInterests": []})


def _bucket(day, params):
    return ParameterBucket(day_start=day, params=params)


class _EchoStore(ReferenceStore):
    """A CR3a answers with its own person, which triggers short reads;
    every other read answers nothing."""

    def execute_query(self, variant, params, snapshot=None):
        return [{"personId": params["personId"]}] if variant == "CR3a" else []


class TestBuildSchedule:
    CUTOFF = day_start(SIM_START + 200 * MS_PER_DAY)

    def _stream(self, n):
        return [_ins_op(self.CUTOFF + i, ident=i) for i in range(n)]

    def test_frequency_counts(self):
        day = self.CUTOFF
        buckets = {day: _bucket(day, {
            "CR3a": [{"personId": 1}],
            "CR13b": [{"person1Id": 1, "person2Id": 2}]})}
        config = DriverConfig(frequencies={"CR3a": 10, "CR13b": 30})
        schedule = build_schedule(self._stream(3000), buckets, self.CUTOFF, config)
        counts = schedule.class_counts()
        assert counts == {"CR": 400, "INS": 3000, "DEL": 0}
        variants = [e.query.variant for e in schedule.entries if e.op is None]
        assert variants.count("CR3a") == 300
        assert variants.count("CR13b") == 100

    def test_instance_follows_triggering_update(self):
        day = self.CUTOFF
        buckets = {day: _bucket(day, {"CR3a": [{"personId": 7}, {"personId": 8}]})}
        config = DriverConfig(frequencies={"CR3a": 10})
        schedule = build_schedule(self._stream(20), buckets, self.CUTOFF, config)
        entry = schedule.entries[10]
        assert entry.op is None
        assert entry.query.variant == "CR3a"
        assert entry.query.params == {"personId": 7}
        assert entry.wall_offset_ms == schedule.entries[9].wall_offset_ms
        assert schedule.entries[21].query.params == {"personId": 8}

    def test_missing_bucket_is_fatal(self):
        with pytest.raises(MissingBucket) as err:
            build_schedule(self._stream(10), {}, self.CUTOFF,
                           DriverConfig(frequencies={"CR3a": 10}))
        assert str(err.value) == f"no parameter bucket for {day_date(self.CUTOFF)}"

    def test_empty_variant_skips_with_warning(self):
        day = self.CUTOFF
        buckets = {day: _bucket(day, {"CR3a": []})}
        config = DriverConfig(frequencies={"CR3a": 10})
        schedule = build_schedule(self._stream(100), buckets, self.CUTOFF, config)
        assert schedule.class_counts()["CR"] == 0
        assert any("CR3a" in w and "10" in w for w in schedule.warnings)

    def test_default_mix_lands_in_band(self, sas):
        """With the stock frequencies the complex-read share of CR+INS must
        stay near the configured cadence: CR/INS in [0.3, 0.5]."""
        buckets = {}
        for op in sas.stream:
            day = day_start(op.scheduled_time)
            if day not in buckets:
                buckets[day] = _bucket(day, {
                    v: [{"stub": True}] for v in
                    ("CR3a", "CR3b", "CR13a", "CR13b", "CR14a", "CR14b")})
        schedule = build_schedule(sas.stream, buckets, sas.cutoff, DriverConfig())
        counts = schedule.class_counts()
        ratio = counts["CR"] / counts["INS"]
        assert 0.3 <= ratio <= 0.5, counts


class TestClockAndGate:
    def test_gate_boundary(self):
        clock = GlobalClock(50, [100, 100, 200])
        assert clock.release(99) == 50
        assert clock.release(100) is None
        clock.mark_done(0)
        assert clock.release(100) is None  # a second op shares the instant
        clock.mark_done(1)
        assert clock.release(100) == 100
        assert clock.release(199) == 100
        assert clock.release(200) is None
        clock.mark_done(2)
        assert clock.release(10**15) == 200

    def test_prefix_watermark_ignores_out_of_order_completions(self):
        clock = GlobalClock(50, [100, 200, 300])
        assert clock.release(0) == 50
        clock.mark_done(1)
        assert clock.release(0) == 50  # op 0 still pending
        clock.mark_done(2)
        assert clock.release(0) == 50
        assert clock.release(100) is None
        clock.mark_done(0)
        assert clock.release(10**15) == 300  # every op committed

    def test_contiguous_completion_advances_stepwise(self):
        clock = GlobalClock(50, [100, 200, 300])
        clock.mark_done(0)
        assert clock.release(0) == 100
        clock.mark_done(1)
        assert clock.release(0) == 200
        assert clock.release(10**15) is None  # op 2 still pending

    def test_out_of_range_index(self):
        clock = GlobalClock(0, [10])
        with pytest.raises(IndexError):
            clock.mark_done(1)

    @staticmethod
    def _blocked_waiter(clock, dependency_ms):
        """A thread blocked in clock.wait_covered(dependency_ms), once it
        waits; what the call returns lands in the list."""
        answers = []
        thread = threading.Thread(
            target=lambda: answers.append(clock.wait_covered(dependency_ms)), daemon=True)
        thread.start()
        deadline = time.monotonic() + 10
        while clock._waiters == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert clock._waiters == 1, "the waiter never blocked"
        return thread, answers

    def test_waiter_wakes_when_the_gap_commits(self):
        """A later index committing out of order leaves the waiter blocked;
        the commit that closes the gap wakes it."""
        clock = GlobalClock(50, [100, 200, 300])
        thread, answers = self._blocked_waiter(clock, 200)
        clock.mark_done(1)
        clock.mark_done(2)
        thread.join(timeout=0.2)
        assert thread.is_alive() and answers == []
        clock.mark_done(0)
        thread.join(timeout=10)
        assert not thread.is_alive(), "a commit covering the wait lost the wake-up"
        assert answers == [300]

    def test_halt_releases_a_blocked_waiter(self):
        clock = GlobalClock(50, [100, 200, 300])
        thread, answers = self._blocked_waiter(clock, 200)
        clock.mark_done(1)
        clock.halt()
        thread.join(timeout=10)
        assert not thread.is_alive(), "halt() left the waiter blocked"
        assert answers == [None]


class TestStats:
    def test_percentile_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 50) == 20.0
        assert percentile(values, 75) == 30.0
        assert percentile(values, 99) == 40.0
        assert percentile(values, 1) == 10.0
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_compute_stats_shape(self):
        stats = compute_stats([3.0, 1.0, 2.0])
        assert stats["count"] == 3
        assert stats["min"] == 1.0
        assert stats["max"] == 3.0
        assert stats["mean"] == 2.0
        assert stats["p50"] == 2.0
        assert compute_stats([]) == {"count": 0}

    @staticmethod
    def _record(op_type, scheduled, actual):
        """A log record in the runner's tuple form: a read's four fields, an
        update's eight (driver.stats.RECORD_FIELDS); 1 ms latency, no gate wait."""
        read = (op_type, scheduled, actual, 1.0)
        return read + (0, 0, 0, 0.0) if op_type.startswith(("INS", "DEL")) else read

    def _records(self, late, total):
        """total update records, the first late of them 5 s late."""
        return [self._record("INS1", 0.0, 5_000.0 if i < late else 0.0)
                for i in range(total)]

    def test_report_dict_shape(self):
        report = summarize_run(self._records(1, 4), 2.0, "paced")
        data = report.to_dict()
        assert data["totalOperations"] == 4
        assert data["onTime"]["late"] == 1
        assert data["onTime"]["target"] == 0.95
        assert data["classTotals"] == {"INS": 4}
        assert data["throughputOpsPerSec"] == 2.0

    def test_throughput_run_has_no_on_time_verdict(self):
        """Nothing paces a throughput run, so its lateness grades nothing:
        the delays stay empty and the counts, ratio and verdict are None,
        under the keys a paced report has."""
        records = self._records(20, 20)
        report = summarize_run(records, 1.0, "throughput")
        assert report.delay_ms == report.delay_ms_by_class == {}
        assert (report.on_time_count, report.late_count, report.on_time_ratio,
                report.valid) == (None, None, None, None)
        data = report.to_dict()
        assert data["delayMs"] == data["delayMsByClass"] == {}
        assert data["onTime"] == {"count": None, "late": None, "ratio": None,
                                  "target": 0.95, "valid": None}
        assert (data["totalOperations"], data["classTotals"]) == (20, {"INS": 20})
        paced = summarize_run(records, 1.0, "paced")
        assert (paced.late_count, paced.on_time_ratio, paced.valid) == (20, 0.0, False)
        assert paced.delay_ms["p50"] == 5_000.0
        assert list(paced.delay_ms_by_class) == ["INS"]
        assert paced.delay_ms_by_class["INS"] == paced.delay_ms
        assert paced.to_dict()["delayMsByClass"] == {"INS": paced.delay_ms}

    def test_paced_run_that_measured_nothing_is_not_valid(self):
        """Nothing measured shows nothing on time: a window that closes
        before the first entry must not pass."""
        report = summarize_run([], 0.01, "paced")
        assert (report.on_time_count, report.late_count, report.on_time_ratio,
                report.valid) == (0, 0, None, False)
        assert report.to_dict()["onTime"] == {"count": 0, "late": 0, "ratio": None,
                                              "target": 0.95, "valid": False}

    def test_paced_lateness_is_summarized_per_kind(self):
        """Each kind's delays fold into its own stats, next to the run's."""
        late = {"CR": 0.5, "SR": 2.0, "INS": 0.25, "DEL": 4.0}
        records = [self._record(kind, 10.0 * i, 10.0 * i + delay * (i + 1))
                   for kind, delay in late.items() for i in range(3)]
        report = summarize_run(records, 1.0, "paced")
        assert sorted(report.delay_ms_by_class) == ["CR", "DEL", "INS", "SR"]
        for kind, delay in late.items():
            stats = report.delay_ms_by_class[kind]
            assert (stats["count"], stats["min"], stats["p50"], stats["max"]) == (
                3, delay, 2 * delay, 3 * delay), kind
        assert report.delay_ms["count"] == 12
        assert report.delay_ms["max"] == 12.0
        assert report.to_dict()["delayMsByClass"] == report.delay_ms_by_class


class TestTriggers:
    def test_cr3_rows_trigger_profile_reads(self):
        rows = [{"personId": i} for i in range(5)]
        out = derive_triggers("CR3a", {}, rows, random.Random(0), TriggerConfig())
        assert out == [("SR2", {"personId": 0}, 1),
                       ("SR2", {"personId": 1}, 1),
                       ("SR2", {"personId": 2}, 1)]

    def test_cr13_triggers_only_when_reachable(self):
        cfg = TriggerConfig()
        params = {"person1Id": 4, "person2Id": 9}
        hit = derive_triggers("CR13b", params, {"shortestPathLength": 4},
                              random.Random(0), cfg)
        assert hit == [("SR2", {"personId": 4}, 1), ("SR2", {"personId": 9}, 1)]
        miss = derive_triggers("CR13b", params, {"shortestPathLength": -1},
                               random.Random(0), cfg)
        assert miss == []

    def test_cr14_path_members_trigger(self):
        out = derive_triggers("CR14b", {}, {"path": [1, 2, 3, 4], "weight": 9},
                              random.Random(0), TriggerConfig())
        assert [t[1]["personId"] for t in out] == [1, 2, 3]
        assert derive_triggers("CR14a", {}, None, random.Random(0),
                               TriggerConfig()) == []

    def test_sr2_fans_out_to_sr6_and_chains(self):
        rows = [{"messageId": m, "rootAuthorId": 70 + m} for m in range(4)]
        out = derive_triggers("SR2", {"personId": 1}, rows, random.Random(1),
                              TriggerConfig(), depth=0)
        sr6 = [t for t in out if t[0] == "SR6"]
        assert [t[1]["messageId"] for t in sr6] == [0, 1, 2]
        chains = [t for t in out if t[0] == "SR2"]
        assert len(chains) == 1  # prob ** 0 == 1: depth zero always chains
        assert chains[0][2] == 1

    def test_sr2_chain_respects_depth_cap(self):
        rows = [{"messageId": 0, "rootAuthorId": 7}]
        cfg = TriggerConfig(sr2_depth_cap=2)
        out = derive_triggers("SR2", {}, rows, random.Random(0), cfg, depth=2)
        assert all(t[0] == "SR6" for t in out)

    def test_determinism_per_seed(self):
        rows = [{"messageId": m, "rootAuthorId": m} for m in range(8)]
        a = derive_triggers("SR2", {}, rows, random.Random(42), TriggerConfig(), 1)
        b = derive_triggers("SR2", {}, rows, random.Random(42), TriggerConfig(), 1)
        assert a == b


def _mini_dataset(num_persons=120, seed=31):
    cfg = GenConfig(seed=seed, num_persons=num_persons, cutoff_fraction=0.5)
    graph = generate_temporal_graph(cfg)
    sas = split_at_cutoff(graph, cfg)
    buckets = generate_parameters(graph, sas.cutoff,
                                  ParamGenOptions(seed=7, per_day=2))
    return graph, sas, buckets


class TestRunner:
    def test_empty_schedule(self):
        schedule = Schedule(cutoff=SIM_START)
        config = DriverConfig(pacing=False)
        report = BenchmarkRunner(ReferenceStore(), schedule, config).run()
        assert report.total_operations == 0
        assert report.on_time_ratio is None
        assert report.valid is None

    def test_throughput_run_executes_everything(self):
        graph, sas, buckets = _mini_dataset()
        store = ReferenceStore()
        store.bulk_load(sas.snapshot)
        config = DriverConfig(pacing=False, seed=3)
        schedule = build_schedule(sas.stream, buckets, sas.cutoff, config)
        runner = BenchmarkRunner(store, schedule, config)
        report = runner.run()
        assert runner.clock.release(10**15) is not None  # every update committed
        # One record per executed operation, updates and reads alike.
        assert len(runner.log) == report.total_operations
        assert len([r for r in runner.log if "opIndex" in r]) == len(sas.stream)
        counts = schedule.class_counts()
        # measured records cover updates, scheduled reads, and triggered reads
        assert report.total_operations >= counts["INS"] + counts["DEL"] + counts["CR"]
        assert report.class_totals["INS"] == counts["INS"]

    def test_audit_log_shows_no_premature_release(self):
        _, sas, buckets = _mini_dataset()
        store = ReferenceStore()
        store.bulk_load(sas.snapshot)
        config = DriverConfig(pacing=False, seed=5, write_threads=4)
        schedule = build_schedule(sas.stream, buckets, sas.cutoff, config)
        runner = BenchmarkRunner(store, schedule, config)
        runner.run()
        for record in runner.log:
            if "opIndex" in record:
                assert record["clockAtRelease"] >= record["dependencyMs"], record

    def test_many_writers_with_fast_thread_switching(self):
        """More writers and readers than cores, switching threads every
        microsecond: every update commits, none before its dependency, none
        left waiting, and every scheduled read runs once."""
        _, sas, buckets = _mini_dataset()
        store = ReferenceStore()
        store.bulk_load(sas.snapshot)
        config = DriverConfig(pacing=False, seed=5, write_threads=8, read_threads=4)
        schedule = build_schedule(sas.stream, buckets, sas.cutoff, config)
        runner = BenchmarkRunner(store, schedule, config)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread = threading.Thread(target=runner.run, daemon=True)
            thread.start()
            thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive(), "run() hangs"
        assert runner.clock.release(10**15) is not None  # every update committed
        updates = [r for r in runner.log if "opIndex" in r]
        assert len(updates) == len(sas.stream)
        for record in updates:
            assert record["clockAtRelease"] >= record["dependencyMs"], record
        complex_reads = [r for r in runner.log if r["kind"] == "CR"]
        assert len(complex_reads) == schedule.class_counts()["CR"]

    def test_log_view_has_each_kinds_keys_and_is_what_the_report_counts(self):
        """A mixed run with two readers and three writers: each log dict
        has exactly its kind's keys (nine for an update, five for a read),
        its kind is its opType's, and the report's class totals, deferrals
        and per-variant latencies are those of the log."""
        _, sas, buckets = _mini_dataset()
        store = ReferenceStore()
        store.bulk_load(sas.snapshot)
        config = DriverConfig(pacing=False, seed=11, write_threads=3, read_threads=2)
        schedule = build_schedule(sas.stream, buckets, sas.cutoff, config)
        runner = BenchmarkRunner(store, schedule, config)
        report = runner.run()
        log = runner.log
        read_keys = {"kind", "opType", "scheduledWallMs", "actualWallMs", "latencyMs"}
        update_keys = read_keys | {"opIndex", "dependencyMs", "clockAtRelease", "gateWaitMs"}
        op_types = {"INS": INSERT_OPS, "DEL": DELETE_OPS,
                    "CR": {v for v in QUERY_VARIANTS if v.startswith("CR")},
                    "SR": {v for v in QUERY_VARIANTS if v.startswith("SR")}}
        latencies: dict[str, list[float]] = {}
        for record in log:
            kind = record["kind"]
            expected = update_keys if kind in ("INS", "DEL") else read_keys
            assert set(record) == expected and len(record) == len(expected), record
            assert record["opType"] in op_types[kind], record
            latencies.setdefault(record["opType"], []).append(record["latencyMs"])
        assert len(log) == report.total_operations
        assert report.class_totals == Counter(record["kind"] for record in log)
        assert set(report.class_totals) == {"INS", "DEL", "CR", "SR"}
        assert report.deferrals == sum(record.get("gateWaitMs", 0.0) > 0 for record in log)
        assert report.variant_latency_ms == {variant: compute_stats(values)
                                             for variant, values in latencies.items()}

    def test_deadlock_detection_on_corrupt_dependency(self):
        """An update that depends on its own scheduled time or a later one
        would wait at the gate for itself, so it cannot be built."""
        cutoff = day_start(SIM_START + 100 * MS_PER_DAY)
        for dep in (cutoff + 2_000, cutoff + 10**9):
            with pytest.raises(ValueError, match="not before its own scheduled time"):
                _ins_op(cutoff + 2_000, dep=dep, ident=1)

    def test_slow_predecessor_is_no_deadlock(self):
        """An update gated on a slow but progressing one waits it out."""
        cutoff = day_start(SIM_START + 100 * MS_PER_DAY)
        stream = [_ins_op(cutoff + 1_000, ident=1),
                  _ins_op(cutoff + 2_000, dep=cutoff + 1_000, ident=2)]

        class SlowStore(ReferenceStore):
            def execute_update(self, op):
                if op.payload["id"] == 1:
                    time.sleep(0.3)
                return super().execute_update(op)

        config = DriverConfig(pacing=False, frequencies={}, write_threads=2)
        schedule = build_schedule(stream, {}, cutoff, config)
        runner = BenchmarkRunner(SlowStore(), schedule, config)
        report = runner.run()
        assert runner.clock.release(10**15) is not None  # every update committed
        assert report.deferrals == 1

    def test_gated_update_starts_when_its_dependency_commits(self):
        """A paced update gated on a 5 ms insert starts right after it."""
        cutoff = day_start(SIM_START + 100 * MS_PER_DAY)
        stream = [_ins_op(cutoff + 1_000, ident=1),
                  _ins_op(cutoff + 1_001, dep=cutoff + 1_000, ident=2)]

        class FiveMsStore(ReferenceStore):
            def execute_update(self, op):
                if op.payload["id"] == 1:
                    time.sleep(0.005)
                return super().execute_update(op)

        config = DriverConfig(tcr=0.02, frequencies={}, write_threads=2)
        schedule = build_schedule(stream, {}, cutoff, config)
        runner = BenchmarkRunner(FiveMsStore(), schedule, config)
        report = runner.run()
        second = max(runner.log, key=lambda r: r["opIndex"])
        assert second["scheduledWallMs"] == pytest.approx(20.02)
        assert second["actualWallMs"] - second["scheduledWallMs"] < 100, second
        assert report.deferrals == sum(record["gateWaitMs"] > 0 for record in runner.log)

    def test_window_stops_dispatch_and_measures_only_inside_it(self):
        """A paced 270 ms window over updates 50 ms apart and one due at its
        edge, with a CR3a after every second one: the workers stop at the
        window, and a short read triggered after it closes runs but is not
        measured."""
        cutoff = day_start(SIM_START + 100 * MS_PER_DAY)
        stream = [_ins_op(cutoff + 5_000 * i, ident=i) for i in range(1, 9)]
        stream.insert(5, _ins_op(cutoff + 27_000, ident=9))
        buckets = {cutoff: _bucket(cutoff, {"CR3a": [{"personId": 1}, {"personId": 2}]})}

        class WindowStore(ReferenceStore):
            def __init__(self):
                super().__init__()
                self.updates, self.reads = [], []

            def execute_update(self, op):
                self.updates.append(op.payload["id"])
                return super().execute_update(op)

            def execute_query(self, variant, params, snapshot=None):
                self.reads.append(variant)
                if variant != "CR3a":
                    return []
                if params["personId"] == 2:  # the CR3a at 200 ms ends after the window
                    time.sleep(0.2)
                return [{"personId": params["personId"]}]

        config = DriverConfig(tcr=0.01, frequencies={"CR3a": 2}, window_secs=0.27)
        schedule = build_schedule(stream, buckets, cutoff, config)
        store = WindowStore()
        report = BenchmarkRunner(store, schedule, config).run()
        # The runner's window agrees with float(wall_offset_ms) / 1000.0, as
        # the benchmark's paced phase assumes: the edge entries are inside.
        inside = [e for e in schedule.entries
                  if float(e.wall_offset_ms) / 1000.0 <= config.window_secs]
        assert inside[-1].wall_offset_ms == 270
        assert store.updates == [e.op.payload["id"] for e in inside if e.op is not None]
        assert store.updates == [1, 2, 3, 4, 5, 9]  # offsets 50..270 ms
        assert not report.schedule_exhausted
        assert sorted(store.reads) == ["CR3a"] * 3 + ["SR2"] * 3
        assert report.class_totals == {"INS": 6, "CR": 3, "SR": 1}
        assert report.class_totals["CR"] == sum(e.op is None for e in inside)
        assert report.total_operations == 10

    def test_window_past_the_last_entry_reports_the_schedule_exhausted(self):
        cutoff = day_start(SIM_START + 100 * MS_PER_DAY)
        stream = [_ins_op(cutoff + 1_000 * i, ident=i) for i in range(1, 4)]
        config = DriverConfig(tcr=0.01, frequencies={}, window_secs=0.5)
        schedule = build_schedule(stream, {}, cutoff, config)
        report = BenchmarkRunner(ReferenceStore(), schedule, config).run()
        assert report.class_totals == {"INS": 3}
        assert report.schedule_exhausted
        assert "schedule ended before the measurement window closed" in report.warnings

    def test_store_error_releases_a_waiting_writer(self):
        """One writer's store raises while the other waits at the gate."""
        cutoff = day_start(SIM_START + 100 * MS_PER_DAY)
        stream = [_ins_op(cutoff + 1_000, ident=1),
                  _ins_op(cutoff + 2_000, dep=cutoff + 1_000, ident=2)]

        class FailingStore(ReferenceStore):
            def execute_update(self, op):
                if op.payload["id"] == 1:
                    time.sleep(0.1)  # the other writer reaches the gate meanwhile
                    raise RuntimeError("store failed")
                return super().execute_update(op)

        config = DriverConfig(pacing=False, frequencies={}, write_threads=2)
        schedule = build_schedule(stream, {}, cutoff, config)
        runner = BenchmarkRunner(FailingStore(), schedule, config)
        raised = []

        def run():
            try:
                runner.run()
            except RuntimeError as exc:
                raised.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive(), "run() hangs after a store error"
        assert [str(exc) for exc in raised] == ["store failed"]
        assert runner.clock.release(cutoff + 1_000) is None

    def test_failed_paced_run_returns_at_once(self):
        """A writer's store fails 10 ms in while a CR3a is due at 3 s:
        run() raises without waiting for the read's instant."""
        cutoff = day_start(SIM_START + 100 * MS_PER_DAY)
        stream = [_ins_op(cutoff + 1_000, ident=1), _ins_op(cutoff + 300_000, ident=2)]
        buckets = {cutoff: _bucket(cutoff, {"CR3a": [{"personId": 1}]})}

        class FailingStore(_EchoStore):
            def execute_update(self, op):
                raise RuntimeError("store failed")

        config = DriverConfig(tcr=0.01, frequencies={"CR3a": 2})
        schedule = build_schedule(stream, buckets, cutoff, config)
        assert float(schedule.entries[-1].wall_offset_ms) == 3_000.0
        runner = BenchmarkRunner(FailingStore(), schedule, config)
        raised = []

        def run():
            try:
                runner.run()
            except RuntimeError as exc:
                raised.append(exc)

        started = time.monotonic()
        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive(), "run() hangs after a store error"
        assert [str(exc) for exc in raised] == ["store failed"]
        assert time.monotonic() - started < 1.0
        assert runner.log == []

    def test_no_paced_operation_starts_early(self):
        """Updates 3 ms apart with a CR3a after every second one: every
        update, complex read and triggered short read starts at or after
        its scheduled instant."""
        cutoff = day_start(SIM_START + 100 * MS_PER_DAY)
        stream = [_ins_op(cutoff + 300 * i, ident=i) for i in range(1, 41)]
        buckets = {cutoff: _bucket(cutoff, {"CR3a": [{"personId": 1}, {"personId": 2}]})}
        config = DriverConfig(tcr=0.01, frequencies={"CR3a": 2})
        schedule = build_schedule(stream, buckets, cutoff, config)
        runner = BenchmarkRunner(_EchoStore(), schedule, config)
        report = runner.run()
        assert report.class_totals["INS"] == 40
        assert report.class_totals["CR"] == 20
        assert report.class_totals["SR"] >= 20
        for record in runner.log:
            assert record["actualWallMs"] >= record["scheduledWallMs"] - 1e-6, record

    @pytest.mark.parametrize("with_updates", [False, True])
    def test_paced_read_starts_within_a_fraction_of_a_sleep_quantum(self, with_updates):
        """60 CR3b reads 3 ms apart, alone or each sharing its instant with
        an update: the median read starts less than 0.4 of a time.sleep(0)
        after its instant.  A reader that waits out its instant in
        time.sleep(0) starts up to one such quantum late, and so does one
        that loses the instant to a writer yielding without sleeping."""
        durations = []
        for _ in range(200):
            started = time.perf_counter()
            time.sleep(0)
            durations.append(time.perf_counter() - started)
        quantum_ms = statistics.median(durations) * 1000.0
        if quantum_ms < 0.01:
            pytest.skip(f"time.sleep(0) takes {quantum_ms * 1000:.1f} us here, "
                        "so a reader has no quantum to lose")
        cutoff = day_start(SIM_START + 100 * MS_PER_DAY)
        stream = [_ins_op(cutoff + 300 * i, ident=i) for i in range(1, 61)]
        buckets = {cutoff: _bucket(cutoff, {"CR3b": [{"personId": 1}]})}
        config = DriverConfig(tcr=0.01, frequencies={"CR3b": 1}, read_threads=1,
                              write_threads=1)
        schedule = build_schedule(stream, buckets, cutoff, config)
        if not with_updates:
            schedule = Schedule(cutoff=cutoff,
                                entries=[e for e in schedule.entries if e.op is None])
        runner = BenchmarkRunner(_EchoStore(), schedule, config)
        report = runner.run()
        assert report.class_totals["CR"] == 60
        lateness = [r["actualWallMs"] - r["scheduledWallMs"] for r in runner.log
                    if r["kind"] == "CR"]
        assert statistics.median(lateness) < 0.4 * quantum_ms, (lateness, quantum_ms)

    def test_a_kind_without_entries_starts_no_thread(self, monkeypatch):
        """An update-only schedule starts no reader, a read-only one no
        writer.  A worker that finds nothing to do ends before the store's
        first call, so every thread started is recorded."""
        started: list[str] = []
        thread_start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            thread_start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        cutoff = day_start(SIM_START + 100 * MS_PER_DAY)
        config = DriverConfig(pacing=False, frequencies={}, read_threads=2, write_threads=2)
        stream = [_ins_op(cutoff + 1_000 * i, ident=i) for i in range(1, 9)]
        report = BenchmarkRunner(_EchoStore(), build_schedule(stream, {}, cutoff, config),
                                 config).run()
        assert report.class_totals == {"INS": 8}
        assert started and not [name for name in started if not name.startswith("writer-")]

        started.clear()
        reads = Schedule(cutoff=cutoff, entries=[
            ScheduleEntry(seq=i, wall_offset_ms=Fraction(i), due_secs=i / 1000.0,
                          query=QueryInstance("CR3a", {"personId": i}))
            for i in range(1, 5)])
        report = BenchmarkRunner(_EchoStore(), reads, config).run()
        assert report.class_totals["CR"] == 4
        assert started and not [name for name in started if not name.startswith("reader-")]

    @pytest.mark.parametrize("pacing", [False, True])
    def test_log_records_carry_exactly_the_documented_keys(self, pacing):
        """Updates 3 ms apart with a CR3a after every second one."""
        cutoff = day_start(SIM_START + 100 * MS_PER_DAY)
        stream = [_ins_op(cutoff + 300 * i, ident=i) for i in range(1, 21)]
        buckets = {cutoff: _bucket(cutoff, {"CR3a": [{"personId": 1}, {"personId": 2}]})}
        config = DriverConfig(tcr=0.01, frequencies={"CR3a": 2}, pacing=pacing)
        schedule = build_schedule(stream, buckets, cutoff, config)
        runner = BenchmarkRunner(_EchoStore(), schedule, config)
        runner.run()
        read_keys = {"kind", "opType", "scheduledWallMs", "actualWallMs", "latencyMs"}
        update_keys = read_keys | {"opIndex", "dependencyMs", "clockAtRelease", "gateWaitMs"}
        kinds = {"INS": 0, "DEL": 0, "CR": 0, "SR": 0}
        for record in runner.log:
            kinds[record["kind"]] += 1
            expected = update_keys if record["kind"] in ("INS", "DEL") else read_keys
            assert set(record) == expected, record
        assert kinds["INS"] == 20 and kinds["CR"] == 10 and kinds["SR"] >= 10

    def test_config_validation(self):
        with pytest.raises(ConfigInvalid):
            DriverConfig(tcr=0.0)
        with pytest.raises(ConfigInvalid):
            DriverConfig(read_threads=0)

    def test_replace_checks_too(self):
        with pytest.raises(ConfigInvalid) as err:
            replace(DriverConfig(), tcr=0.0)
        assert err.value.field == "tcr"


class TestProgressLog:
    def test_schedule_and_run_log_one_line_each(self, caplog):
        cutoff = day_start(SIM_START + 100 * MS_PER_DAY)
        stream = [_ins_op(cutoff + 1_000 * i, ident=i) for i in range(1, 7)]
        buckets = {cutoff: _bucket(cutoff, {"CR3a": [{"personId": 1}], "CR3b": []})}
        config = DriverConfig(tcr=0.001, frequencies={"CR3a": 2, "CR3b": 3})
        with caplog.at_level(logging.DEBUG, logger="socialbench.driver"):
            schedule = build_schedule(stream, buckets, cutoff, config)
            report = BenchmarkRunner(_EchoStore(), schedule, config).run()
        records = [r for r in caplog.records if r.name.startswith("socialbench.driver")]
        assert all(r.levelno == logging.INFO for r in records)
        delay = report.delay_ms
        assert [r.getMessage() for r in records] == [
            "schedule: 9 entries, 3 complex reads, 2 instances skipped",
            f"paced run: {report.total_operations} operations in {report.wall_seconds:.2f} s, "
            f"delay p50 {delay['p50']:.3f} ms, p90 {delay['p90']:.3f} ms"]


class TestCrossValidate:
    def test_reference_and_naive_agree(self):
        _, sas, buckets = _mini_dataset(num_persons=80, seed=13)
        ref, naive = ReferenceStore(), NaiveStore()
        ref.bulk_load(sas.snapshot)
        naive.bulk_load(sas.snapshot)
        config = DriverConfig(pacing=False)
        schedule = build_schedule(sas.stream, buckets, sas.cutoff, config)
        outcome = cross_validate(ref, naive, schedule, config)
        assert outcome["diffCount"] == 0
        assert outcome["updates"] == len(sas.stream)
        assert outcome["queries"] > 0

    # Per query method: a wrong answer of the right shape made from the
    # right one, and the variant family that answers through the method.
    WRONG_ANSWERS = {
        "_cr3": (lambda rows: rows + [{"personId": 0, "xCount": 1, "yCount": 1,
                                       "totalCount": 2}], "CR3"),
        "_cr13": (lambda r: {"shortestPathLength": r["shortestPathLength"] + 1}, "CR13"),
        "_cr14": (lambda r: {"path": [], "weight": -1}, "CR14"),
        "_sr2": (lambda rows: rows[1:], "SR2"),
        "_sr6": (lambda r: None, "SR6"),
    }

    @pytest.mark.parametrize("method", sorted(WRONG_ANSWERS))
    def test_injected_query_fault_is_caught(self, method):
        """execute_query reaches each query through the instance, so an
        override's wrong answers show up as divergences of its family."""
        wrong, family = self.WRONG_ANSWERS[method]

        def broken_method(self, snap, params):
            return wrong(getattr(ReferenceStore, method)(self, snap, params))

        broken = type("BrokenStore", (ReferenceStore,), {method: broken_method})()
        _, sas, buckets = _mini_dataset(num_persons=80, seed=13)
        naive = NaiveStore()
        broken.bulk_load(sas.snapshot)
        naive.bulk_load(sas.snapshot)
        config = DriverConfig(pacing=False)
        schedule = build_schedule(sas.stream, buckets, sas.cutoff, config)
        outcome = cross_validate(broken, naive, schedule, config)
        assert outcome["diffCount"] > 0
        assert any(v.startswith(family) for v in outcome["variantsWithDiffs"])

    def test_every_divergence_is_counted(self):
        class Lies48CR13:
            """Delegates to a ReferenceStore but answers 48 CR13 reads wrongly."""

            def __init__(self):
                self.inner, self.lies = ReferenceStore(), 0

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def execute_query(self, variant, params, snapshot=None):
                result = self.inner.execute_query(variant, params, snapshot)
                if variant.startswith("CR13") and self.lies < 48:
                    self.lies += 1
                    return {"shortestPathLength": result["shortestPathLength"] + 1}
                return result

        _, sas, buckets = _mini_dataset(num_persons=80, seed=13)
        naive, liar = NaiveStore(), Lies48CR13()
        naive.bulk_load(sas.snapshot)
        liar.bulk_load(sas.snapshot)
        config = DriverConfig(pacing=False)
        schedule = build_schedule(sas.stream, buckets, sas.cutoff, config)
        outcome = cross_validate(naive, liar, schedule, config)
        assert liar.lies == 48
        assert outcome["diffCount"] == 48
        # Examples stay capped: CR13a and CR13b keep three each.
        assert len(outcome["diffs"]) == 2 * MAX_DIFFS_PER_VARIANT

    def test_runner_and_validation_follow_the_same_links(self):
        """Both evaluators seed a read's follow-ups by its key and run them
        depth-first, so with one reader they issue the same reads in the
        same order."""
        class Recording(ReferenceStore):
            def execute_query(self, variant, params, snapshot=None):
                self.reads.append((variant, tuple(sorted(params.items()))))
                return super().execute_query(variant, params, snapshot)

        _, sas, buckets = _mini_dataset(num_persons=80, seed=13)
        config = DriverConfig(pacing=False, seed=4, read_threads=1)
        full = build_schedule(sas.stream, buckets, sas.cutoff, config)
        reads_only = Schedule(cutoff=full.cutoff,
                              entries=[e for e in full.entries if e.op is None])
        stores = [Recording(), Recording(), NaiveStore()]
        for store in stores:
            store.reads = []
            store.bulk_load(sas.snapshot)
            for op in sas.stream:  # the reads then find the entities they name
                store.execute_update(op)
        BenchmarkRunner(stores[0], reads_only, config).run()
        assert cross_validate(stores[1], stores[2], reads_only, config)["diffCount"] == 0
        assert stores[0].reads == stores[1].reads
        assert len(stores[0].reads) > len(reads_only.entries)  # some reads triggered
