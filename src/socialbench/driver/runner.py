"""Concurrent benchmark execution.

A dispatcher walks the schedule and feeds two thread pools: writers
apply update operations, readers run queries.  Updates pass through the
dependency gate first; an update whose dependency the completion clock
has not covered yet waits on the clock until a commit covers it.
Writers take updates in stream order from one queue, so every update
before a gated one is already held by a writer and commits: a wait ends
unless the update depends on its own scheduled time or later, where it
would wait for itself.  Such an update aborts the run as a deadlock
before it waits.  Readers fan query results out into triggered short
reads, which join the read queue; the run ends once that queue is
drained.

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
from .clock import GlobalClock
from .config import DriverConfig
from .schedule import QueryInstance, Schedule
from .stats import RunReport, summarize_run
from .triggers import follow_ups


class BenchmarkRunner:
    """One benchmark run against one store.

    log gets one record per executed operation, in completion order:
    kind ("INS"/"DEL"/"CR"/"SR"), opType, scheduledWallMs, actualWallMs
    and latencyMs.  An update's record also carries opIndex,
    dependencyMs, clockAtRelease (the completion clock when the gate let
    it through) and gateWaitMs.
    """

    def __init__(self, store, schedule: Schedule, config: DriverConfig | None = None):
        self.store = store
        self.schedule = schedule
        self.config = config or DriverConfig()
        self.config.validate()
        sim_times = [entry.op.scheduled_time for entry in schedule.entries
                     if entry.op is not None]
        self.clock = GlobalClock(schedule.cutoff, sim_times)
        self.log: list[dict] = []
        self._write_q: queue.Queue = queue.Queue()
        self._read_q: queue.Queue = queue.Queue()
        self._abort = threading.Event()
        self._errors: list[BaseException] = []

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
        self._read_q.join()
        for _ in readers:
            self._read_q.put(None)
        for thread in readers:
            thread.join()

        if self._errors:
            raise self._errors[0]

        wall = time.monotonic() - run_start
        report = summarize_run(self._measured(), wall,
                               "paced" if self.config.pacing else "throughput")
        report.deferrals = sum(1 for record in self.log if record.get("gateWaitMs"))
        report.warnings.extend(self.schedule.warnings)
        if self.config.window_secs is not None and not truncated:
            report.schedule_exhausted = True
            report.warnings.append("schedule ended before the measurement window closed")
        return report

    def _dispatch(self, run_start: float) -> bool:
        """Feed the queues; returns True if the window cut the schedule short."""
        window_secs = self.config.window_secs
        for entry in self.schedule.entries:
            if self._abort.is_set():
                return True
            scheduled_secs = float(entry.wall_offset_ms) / 1000.0
            if window_secs is not None and scheduled_secs > window_secs:
                return True
            if self.config.pacing:
                delay = run_start + scheduled_secs - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            scheduled_ms = scheduled_secs * 1000.0
            if entry.op is not None:
                self._write_q.put((entry, scheduled_ms))
            else:
                self._read_q.put((entry.query, scheduled_ms, (entry.seq,)))
        return False

    def _fail(self, exc: BaseException) -> None:
        self._errors.append(exc)
        self._abort.set()
        self.clock.halt()

    def _measured(self) -> list[dict]:
        """The log records due inside the window: a short read triggered
        after the window closes runs but is not measured."""
        if self.config.window_secs is None:
            return self.log
        end_ms = self.config.window_secs * 1000.0
        return [record for record in self.log if record["scheduledWallMs"] <= end_ms]

    # -- workers -----------------------------------------------------------

    def _write_worker(self, run_start: float) -> None:
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
            gate_wait_ms = 0.0
            if not self.clock.covered(op.dependency_time):
                arrived = time.perf_counter()
                if not self.clock.wait_covered(op.dependency_time):
                    return
                gate_wait_ms = (time.perf_counter() - arrived) * 1000.0
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
            self.log.append({
                "kind": "INS" if op.is_insert else "DEL",
                "opType": op.op_type,
                "scheduledWallMs": scheduled_ms,
                "actualWallMs": actual_ms,
                "latencyMs": latency_ms,
                "opIndex": entry.op_index,
                "dependencyMs": op.dependency_time,
                "clockAtRelease": clock_now,
                "gateWaitMs": gate_wait_ms,
            })

    def _read_worker(self, run_start: float) -> None:
        while True:
            task = self._read_q.get()
            if task is None:
                return
            try:
                if not self._abort.is_set():
                    self._run_read(*task, run_start)
            except BaseException as exc:
                self._fail(exc)
            finally:
                self._read_q.task_done()

    def _run_read(self, instance: QueryInstance, scheduled_ms: float, key: tuple,
                  run_start: float) -> None:
        """Run one read; key seeds the short reads its result triggers."""
        actual_ms = (time.monotonic() - run_start) * 1000.0
        started = time.perf_counter()
        result = self.store.execute_query(instance.variant, instance.params)
        self.log.append({
            "kind": instance.variant[:2],  # "CR" or "SR"
            "opType": instance.variant,
            "scheduledWallMs": scheduled_ms,
            "actualWallMs": actual_ms,
            "latencyMs": (time.perf_counter() - started) * 1000.0,
        })
        children = follow_ups(self.config.seed, key, instance.variant, instance.params,
                              result, self.config.triggers, instance.depth)
        now_ms = (time.monotonic() - run_start) * 1000.0
        for variant, params, depth, child_key in children:
            self._read_q.put((QueryInstance(variant, params, depth), now_ms, child_key))
