"""Concurrent benchmark execution.

A dispatcher walks the schedule and feeds two thread pools: writers
apply update operations, readers run queries.  Updates pass through the
dependency gate first; an update whose dependency the completion clock
has not reached yet is deferred and re-checked on a fixed cadence.
Writers take updates in stream order from one queue, so every update
before a gated one is already held by a writer and commits: a wait ends
unless the update depends on its own scheduled time or later, where it
would wait for itself.  Such an update aborts the run as a deadlock
before it waits.  Readers fan query results out into triggered short
reads.

With pacing enabled the dispatcher sleeps until each entry's scheduled
wall instant; with pacing disabled it dispatches as fast as the queues
drain, which keeps every ordering and gating property intact while
letting replay-style runs finish quickly.
"""

from __future__ import annotations

import queue
import threading
import time

from ..errors import DeadlockSuspected
from ..rng import derive_rng
from .clock import GlobalClock
from .config import DriverConfig
from .schedule import UPDATE, QueryInstance, Schedule
from .stats import RunReport, summarize_run
from .triggers import derive_triggers

_THROUGHPUT_RECHECK_SECS = 0.001


class _ReadTask:
    __slots__ = ("instance", "scheduled_ms", "key")

    def __init__(self, instance: QueryInstance, scheduled_ms: float, key: tuple):
        self.instance = instance
        self.scheduled_ms = scheduled_ms
        self.key = key


def _query_class(variant: str) -> str:
    return "CR" if variant.startswith("CR") else "SR"


class BenchmarkRunner:
    """One benchmark run against one store."""

    def __init__(self, store, schedule: Schedule, config: DriverConfig | None = None):
        self.store = store
        self.schedule = schedule
        self.config = config or DriverConfig()
        self.config.validate()
        sim_times = [entry.op.scheduled_time for entry in schedule.entries
                     if entry.kind == UPDATE]
        self.clock = GlobalClock(schedule.cutoff, sim_times)
        self.audit_log: list[dict] = []
        self._measurements: list[dict] = []
        self._write_q: queue.Queue = queue.Queue()
        self._read_q: queue.Queue = queue.Queue()
        self._pending_reads = 0
        self._reads_done = threading.Condition()
        self._abort = threading.Event()
        self._errors: list[BaseException] = []
        self._deferrals = 0
        self._max_rechecks = 0
        self._stat_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> RunReport:
        run_start = time.monotonic()
        writers = [threading.Thread(target=self._write_worker, name=f"writer-{i}",
                                    args=(run_start,), daemon=True)
                   for i in range(self.config.write_threads)]
        readers = [threading.Thread(target=self._read_worker, name=f"reader-{i}",
                                    args=(run_start,), daemon=True)
                   for i in range(self.config.read_threads)]
        for thread in writers + readers:
            thread.start()

        truncated = self._dispatch(run_start)

        for _ in writers:
            self._write_q.put(None)
        for thread in writers:
            thread.join()
        with self._reads_done:
            while self._pending_reads > 0 and not self._abort.is_set():
                self._reads_done.wait(0.05)
        for _ in readers:
            self._read_q.put(None)
        for thread in readers:
            thread.join()

        if self._errors:
            raise self._errors[0]

        wall = time.monotonic() - run_start
        report = summarize_run(self._measurements, wall,
                               self.config.on_time_threshold_ms,
                               self.config.on_time_target,
                               "paced" if self.config.pacing else "throughput")
        report.deferrals = self._deferrals
        report.max_deferral_rechecks = self._max_rechecks
        report.warnings.extend(self.schedule.warnings)
        if self.config.window_secs is not None and not truncated:
            report.schedule_exhausted = True
            report.warnings.append("schedule ended before the measurement window closed")
        return report

    def _dispatch(self, run_start: float) -> bool:
        """Feed the queues; returns True if the window cut the schedule short."""
        window_end = None
        if self.config.window_secs is not None:
            window_end = self.config.warmup_secs + self.config.window_secs
        for entry in self.schedule.entries:
            if self._abort.is_set():
                return True
            scheduled_secs = float(entry.wall_offset_ms) / 1000.0
            if window_end is not None and scheduled_secs > window_end:
                return True
            if self.config.pacing:
                delay = run_start + scheduled_secs - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            scheduled_ms = scheduled_secs * 1000.0
            if entry.kind == UPDATE:
                self._write_q.put((entry, scheduled_ms))
            else:
                self._enqueue_read(_ReadTask(entry.query, scheduled_ms, (entry.seq,)))
        return False

    def _enqueue_read(self, task: _ReadTask) -> None:
        with self._reads_done:
            self._pending_reads += 1
        self._read_q.put(task)

    def _fail(self, exc: BaseException) -> None:
        self._errors.append(exc)
        self._abort.set()
        with self._reads_done:
            self._reads_done.notify_all()

    def _measured(self, scheduled_ms: float) -> bool:
        if scheduled_ms < self.config.warmup_secs * 1000.0:
            return False
        if self.config.window_secs is None:
            return True
        end = (self.config.warmup_secs + self.config.window_secs) * 1000.0
        return scheduled_ms <= end

    # -- workers -----------------------------------------------------------

    def _write_worker(self, run_start: float) -> None:
        recheck = (self.config.gate_recheck_wall_secs if self.config.pacing
                   else _THROUGHPUT_RECHECK_SECS)
        while True:
            item = self._write_q.get()
            if item is None:
                return
            if self._abort.is_set():
                continue
            entry, scheduled_ms = item
            op = entry.op
            if op.dependency_time >= op.scheduled_time:
                self._fail(DeadlockSuspected(
                    f"op {entry.op_index} ({op.op_type}) at {op.scheduled_time} depends "
                    f"on {op.dependency_time}, so it would wait for itself"))
                return
            rechecks = 0
            while not self.clock.covered(op.dependency_time):
                if self._abort.is_set():
                    return
                rechecks += 1
                time.sleep(recheck)
            clock_now = self.clock.value()
            actual_ms = (time.monotonic() - run_start) * 1000.0
            started = time.perf_counter()
            try:
                self.store.execute_update(op)
            except BaseException as exc:  # surface store bugs, do not hang
                self._fail(exc)
                return
            latency_ms = (time.perf_counter() - started) * 1000.0
            self.clock.mark_done(entry.op_index)
            self.audit_log.append({
                "opIndex": entry.op_index,
                "opType": op.op_type,
                "dependencyMs": op.dependency_time,
                "clockAtRelease": clock_now,
                "rechecks": rechecks,
                "scheduledWallMs": scheduled_ms,
                "actualWallMs": actual_ms,
            })
            with self._stat_lock:
                if rechecks:
                    self._deferrals += 1
                    self._max_rechecks = max(self._max_rechecks, rechecks)
            if self._measured(scheduled_ms):
                self._measurements.append({
                    "kind": "INS" if op.is_insert else "DEL",
                    "variant": op.op_type,
                    "scheduled_ms": scheduled_ms,
                    "actual_ms": actual_ms,
                    "latency_ms": latency_ms,
                })

    def _read_worker(self, run_start: float) -> None:
        while True:
            task = self._read_q.get()
            if task is None:
                return
            try:
                if not self._abort.is_set():
                    self._run_read(task, run_start)
            except BaseException as exc:
                self._fail(exc)
            finally:
                with self._reads_done:
                    self._pending_reads -= 1
                    if self._pending_reads == 0:
                        self._reads_done.notify_all()

    def _run_read(self, task: _ReadTask, run_start: float) -> None:
        instance = task.instance
        actual_ms = (time.monotonic() - run_start) * 1000.0
        started = time.perf_counter()
        result = self.store.execute_query(instance.variant, instance.params)
        latency_ms = (time.perf_counter() - started) * 1000.0
        if self._measured(task.scheduled_ms):
            self._measurements.append({
                "kind": _query_class(instance.variant),
                "variant": instance.variant,
                "scheduled_ms": task.scheduled_ms,
                "actual_ms": actual_ms,
                "latency_ms": latency_ms,
            })
        rng = derive_rng(self.config.seed, *task.key)
        children = derive_triggers(instance.variant, instance.params, result,
                                   rng, self.config.triggers, instance.depth)
        now_ms = (time.monotonic() - run_start) * 1000.0
        for ordinal, (variant, params, depth) in enumerate(children):
            child = QueryInstance(variant=variant, params=params,
                                  bucket_day=instance.bucket_day,
                                  instance_index=instance.instance_index,
                                  depth=depth)
            self._enqueue_read(_ReadTask(child, now_ms, task.key + (ordinal,)))
