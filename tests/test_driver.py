"""Schedule construction, gating clock, runner, stats, and validation."""

import random
import time
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
    on_time,
    percentile,
    summarize_run,
    wall_offset,
)
from socialbench.driver.validate import MAX_DIFFS_PER_VARIANT
from socialbench.errors import (
    ConfigInvalid,
    DeadlockSuspected,
    MissingBucket,
    ValidationFailed,
)
from socialbench.model import UpdateOperation
from socialbench.paramgen import ParamGenOptions, ParameterBucket, generate_parameters
from socialbench.refstore import NaiveStore, ReferenceStore
from socialbench.simtime import MS_PER_DAY, SIM_START, day_start


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
        variants = [e.query.variant for e in schedule.entries if e.kind == "query"]
        assert variants.count("CR3a") == 300
        assert variants.count("CR13b") == 100

    def test_instance_follows_triggering_update(self):
        day = self.CUTOFF
        buckets = {day: _bucket(day, {"CR3a": [{"personId": 7}]})}
        config = DriverConfig(frequencies={"CR3a": 10})
        schedule = build_schedule(self._stream(20), buckets, self.CUTOFF, config)
        entry = schedule.entries[10]
        assert entry.kind == "query"
        assert entry.query.variant == "CR3a"
        assert entry.wall_offset_ms == schedule.entries[9].wall_offset_ms
        assert schedule.entries[21].query.instance_index == 1

    def test_missing_bucket_is_fatal(self):
        with pytest.raises(MissingBucket):
            build_schedule(self._stream(10), {}, self.CUTOFF,
                           DriverConfig(frequencies={"CR3a": 10}))

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
        assert clock.covered(99)
        assert not clock.covered(100)
        clock.mark_done(0)
        assert not clock.covered(100)  # a second op shares the instant
        clock.mark_done(1)
        assert clock.covered(100)
        assert clock.covered(199)
        assert not clock.covered(200)
        clock.mark_done(2)
        assert clock.covered(10**15)

    def test_prefix_watermark_ignores_out_of_order_completions(self):
        clock = GlobalClock(50, [100, 200, 300])
        assert clock.value() == 50
        clock.mark_done(1)
        assert clock.value() == 50  # op 0 still pending
        clock.mark_done(2)
        assert clock.value() == 50
        clock.mark_done(0)
        assert clock.value() == 300
        assert clock.complete

    def test_contiguous_completion_advances_stepwise(self):
        clock = GlobalClock(50, [100, 200, 300])
        clock.mark_done(0)
        assert clock.value() == 100
        clock.mark_done(1)
        assert clock.value() == 200
        assert not clock.complete

    def test_out_of_range_index(self):
        clock = GlobalClock(0, [10])
        with pytest.raises(IndexError):
            clock.mark_done(1)


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

    def test_on_time_boundary_is_inclusive(self):
        assert on_time(0.0, 1_000.0)
        assert not on_time(0.0, 1_000.0001)
        assert on_time(500.0, 1_400.0)

    def _measurements(self, late, total):
        records = []
        for i in range(total):
            delay = 2_000.0 if i < late else 0.0
            records.append({"kind": "INS", "variant": "INS1",
                            "scheduled_ms": 0.0, "actual_ms": delay,
                            "latency_ms": 1.0})
        return records

    def test_validity_flips_exactly_at_target(self):
        exactly = summarize_run(self._measurements(1, 20), 1.0, 1_000.0, 0.95,
                                "throughput")
        assert exactly.on_time_ratio == 0.95
        assert exactly.valid
        below = summarize_run(self._measurements(2, 20), 1.0, 1_000.0, 0.95,
                              "throughput")
        assert below.on_time_ratio == 0.9
        assert not below.valid

    def test_synthetic_lateness_reproduces_ratio(self):
        for late, total in [(0, 50), (5, 50), (17, 100), (50, 50)]:
            report = summarize_run(self._measurements(late, total), 1.0,
                                   1_000.0, 0.95, "throughput")
            assert report.on_time_ratio == (total - late) / total
            assert report.late_count == late
        assert summarize_run([], 1.0, 1_000.0, 0.95, "x").on_time_ratio == 1.0

    def test_report_dict_shape(self):
        report = summarize_run(self._measurements(1, 4), 2.0, 1_000.0, 0.95,
                               "throughput")
        data = report.to_dict()
        assert data["totalOperations"] == 4
        assert data["onTime"]["late"] == 1
        assert data["classTotals"] == {"INS": 4}
        assert data["throughputOpsPerSec"] == 2.0


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
        schedule = Schedule(cutoff=SIM_START, tcr_exact=Fraction(1, 50))
        config = DriverConfig(pacing=False)
        report = BenchmarkRunner(ReferenceStore(), schedule, config).run()
        assert report.total_operations == 0
        assert report.valid

    def test_throughput_run_executes_everything(self):
        graph, sas, buckets = _mini_dataset()
        store = ReferenceStore()
        store.bulk_load(sas.snapshot)
        config = DriverConfig(pacing=False, seed=3)
        schedule = build_schedule(sas.stream, buckets, sas.cutoff, config)
        runner = BenchmarkRunner(store, schedule, config)
        report = runner.run()
        assert runner.clock.complete
        assert len(runner.audit_log) == len(sas.stream)
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
        for entry in runner.audit_log:
            assert entry["clockAtRelease"] >= entry["dependencyMs"], entry

    def test_deadlock_detection_on_corrupt_dependency(self):
        cutoff = day_start(SIM_START + 100 * MS_PER_DAY)
        poisoned = [_ins_op(cutoff + 1_000, dep=cutoff + 10**9, ident=1)]
        schedule = build_schedule(poisoned, {}, cutoff,
                                  DriverConfig(frequencies={}, pacing=False))
        config = DriverConfig(pacing=False, frequencies={})
        with pytest.raises(DeadlockSuspected):
            BenchmarkRunner(ReferenceStore(), schedule, config).run()

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
        assert runner.clock.complete
        assert report.deferrals == 1

    def test_config_validation(self):
        with pytest.raises(ConfigInvalid):
            DriverConfig(tcr=0.0).validate()
        with pytest.raises(ConfigInvalid):
            DriverConfig(read_threads=0).validate()
        with pytest.raises(ConfigInvalid):
            DriverConfig(on_time_target=1.5).validate()
        assert DriverConfig(tcr=0.02, t_safe=10_000).gate_recheck_wall_secs == 0.2


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

    def test_injected_query_fault_is_caught(self):
        class OffByOneStore(ReferenceStore):
            def _cr13(self, snap, params):
                result = super()._cr13(snap, params)
                return {"shortestPathLength": result["shortestPathLength"] + 1}

        _, sas, buckets = _mini_dataset(num_persons=80, seed=13)
        broken, naive = OffByOneStore(), NaiveStore()
        broken.bulk_load(sas.snapshot)
        naive.bulk_load(sas.snapshot)
        config = DriverConfig(pacing=False)
        schedule = build_schedule(sas.stream, buckets, sas.cutoff, config)
        outcome = cross_validate(broken, naive, schedule, config)
        assert outcome["diffCount"] > 0
        assert any(v.startswith("CR13") for v in outcome["variantsWithDiffs"])

        broken2, naive2 = OffByOneStore(), NaiveStore()
        broken2.bulk_load(sas.snapshot)
        naive2.bulk_load(sas.snapshot)
        with pytest.raises(ValidationFailed):
            cross_validate(broken2, naive2, schedule, config, raise_on_diff=True)

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
