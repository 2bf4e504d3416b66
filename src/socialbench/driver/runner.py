"""Concurrent benchmark execution.

Writers apply update operations and readers run queries.  Each worker
takes the next schedule entry of its own kind under one lock and, with
pacing enabled, waits until it is due; with pacing disabled it runs it
at once, which keeps every ordering and gating property intact while
letting replay-style runs finish quickly.

A paced wait has two stages.  The worker first sleeps on the abort
event until WAKE_MARGIN_S before the due instant, so a failed run ends
at once; it then calls time.sleep(0) until the instant, which hands the
interpreter lock to any other thread on every pass.  A thread sleep
ends late by up to a few tenths of a millisecond, and a read that
starts late by that much is charged for it; the margin sits above the
overshoot measured at the 90th percentile, so the sleep almost always
ends before the instant and the yielding loop starts the entry on it.
A loop that spins while holding the interpreter lock starts its own
entry on time but delays every other thread, and measured worse.

An update whose dependency the completion clock has not covered yet
waits on the clock until a commit covers it.  Writers take updates in
stream order, so every update before a gated one is already held by a
writer and commits: a wait ends unless the update depends on its own
scheduled time or later, where it would wait for itself.  Such an
update aborts the run as a deadlock before it waits.  A reader runs the
short reads a result triggers depth-first, in the order cross_validate
runs them, before it takes its next entry.
"""

from __future__ import annotations

import logging
import threading
import time

from ..errors import DeadlockSuspected
from .clock import GlobalClock
from .config import DriverConfig
from .schedule import Schedule
from .stats import RunReport, summarize_run
from .triggers import follow_ups

logger = logging.getLogger(__name__)

# How long before its due instant a paced worker stops sleeping and
# starts yielding.  time.sleep(0.0007) overshoots by 0.09 ms at the
# median and 0.27 ms at the 90th percentile on a 2-vCPU machine.
WAKE_MARGIN_S = 0.0003


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
        # Each kind's entries with their due instants in seconds, so that
        # no worker converts a Fraction under the take lock.
        self._updates: list[tuple] = []
        self._reads: list[tuple] = []
        for entry in schedule.entries:
            (self._reads if entry.op is None else self._updates).append(
                (entry, float(entry.wall_offset_ms) / 1000.0))
        self.clock = GlobalClock(schedule.cutoff,
                                 [entry.op.scheduled_time for entry, _ in self._updates])
        self.log: list[dict] = []
        self._take_lock = threading.Lock()  # one iterator, one caller at a time
        self._abort = threading.Event()
        self._errors: list[BaseException] = []
        self._truncated = False  # an entry lay past the window

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> RunReport:
        self._start = time.monotonic()
        updates, reads = iter(self._updates), iter(self._reads)
        threads = [threading.Thread(target=self._write_worker, name=f"writer-{i}",
                                    args=(updates,), daemon=True)
                   for i in range(self.config.write_threads)]
        threads += [threading.Thread(target=self._read_worker, name=f"reader-{i}",
                                     args=(reads,), daemon=True)
                    for i in range(self.config.read_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        if self._errors:
            raise self._errors[0]

        wall = time.monotonic() - self._start
        report = summarize_run(self._measured(), wall,
                               "paced" if self.config.pacing else "throughput")
        report.deferrals = sum(1 for record in self.log if record.get("gateWaitMs"))
        report.warnings.extend(self.schedule.warnings)
        if self.config.window_secs is not None and not self._truncated:
            report.schedule_exhausted = True
            report.warnings.append("schedule ended before the measurement window closed")
        if logger.isEnabledFor(logging.INFO):
            logger.info("%s run: %d operations in %.2f s, delay p50 %.3f ms, p90 %.3f ms",
                        report.mode, report.total_operations, wall,
                        report.delay_ms.get("p50", 0.0), report.delay_ms.get("p90", 0.0))
        return report

    def _take(self, entries) -> tuple | None:
        """The next of entries and its due instant in ms, once it is due;
        None when none is left inside the window or the run aborted."""
        with self._take_lock:
            taken = next(entries, None)
        if taken is None:
            return None
        entry, due_secs = taken
        if self.config.window_secs is not None and due_secs > self.config.window_secs:
            self._truncated = True
            return None
        if self.config.pacing:
            due = self._start + due_secs
            delay = due - time.monotonic() - WAKE_MARGIN_S
            if delay > 0 and self._abort.wait(delay):
                return None
            while time.monotonic() < due:
                time.sleep(0)
        if self._abort.is_set():
            return None
        return entry, due_secs * 1000.0

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

    def _write_worker(self, updates) -> None:
        while (taken := self._take(updates)) is not None:
            entry, scheduled_ms = taken
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
            actual_ms = (time.monotonic() - self._start) * 1000.0
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

    def _read_worker(self, reads) -> None:
        try:
            while (taken := self._take(reads)) is not None:
                entry, scheduled_ms = taken
                self._run_read(entry.query.variant, entry.query.params, entry.query.depth,
                               (entry.seq,), scheduled_ms)
        except BaseException as exc:
            self._fail(exc)

    def _run_read(self, variant: str, params: dict, depth: int, key: tuple,
                  scheduled_ms: float) -> None:
        """Run one read, then the short reads its result triggers, due
        when it answered; key seeds their draw."""
        actual_ms = (time.monotonic() - self._start) * 1000.0
        started = time.perf_counter()
        result = self.store.execute_query(variant, params)
        self.log.append({
            "kind": variant[:2],  # "CR" or "SR"
            "opType": variant,
            "scheduledWallMs": scheduled_ms,
            "actualWallMs": actual_ms,
            "latencyMs": (time.perf_counter() - started) * 1000.0,
        })
        answered_ms = (time.monotonic() - self._start) * 1000.0
        for child in follow_ups(self.config.seed, key, variant, params, result,
                                self.config.triggers, depth):
            self._run_read(*child, answered_ms)
