"""Concurrent benchmark execution.

Writers apply update operations and readers run queries.  Each worker
takes the next schedule entry of its own kind under one lock and, with
pacing enabled, waits until it is due; with pacing disabled it runs it
at once, which keeps every ordering and gating property intact while
letting replay-style runs finish quickly.

A paced wait has two stages.  The worker first sleeps on the abort
event until WAKE_MARGIN_S before the due instant, so a failed run ends
at once; it then yields until the instant, handing the interpreter lock
to any other thread on every pass.  A thread sleep ends late, and a
read that starts late is charged for it; the margin sits above the
sleep's overshoot, so the sleep almost always ends before the instant
and the yielding loop starts the entry on it.  A loop that spins while
holding the interpreter lock starts its own entry on time but delays
every other thread, and measured worse.

The two kinds of worker yield differently.  A reader calls
os.sched_yield, which returns in under a microsecond.  On Linux
time.sleep(0) is a nanosleep that the thread's timer slack (50 us by
default) stretches to about 54 us, so a reader yielding that way started
its read up to one such quantum after its instant.  A writer keeps
time.sleep(0).  The schedule gives every complex read the instant of
the update that fired it, so a writer is due whenever a reader is, and
a writer asleep in its quantum leaves the interpreter lock to the reader
at that shared instant.  A writer on sched_yield re-takes the lock
within a microsecond and wins the instant, and the read then waits for
the update.  In-process paced runs of the benchmark's validate world
(2-vCPU machine, medians of six runs) answered a complex read at a
response p50 of 0.073 ms this way, against 0.106 ms with both kinds on
sched_yield and 0.123 ms with both on time.sleep(0).  A writer that
sleeps to its instant with no yielding loop started its update 0.083 ms
late at the median, against 0.046 ms this way.

A writer passes the dependency gate with one lock-free read of the
completion clock, which checks that it covers the update's dependency
and gives the clock value the update's record carries.  An update whose
dependency the clock has not covered yet waits on the clock until a
commit covers it.  Writers take updates in stream order, so every update
before a gated one is already held by a writer and commits: a wait ends
unless the update depends on its own scheduled time or later, where it
would wait for itself.  The constructor refuses such an update as a
deadlock, so nothing commits.  A reader runs the short reads a result
triggers depth-first, in the order cross_validate runs them, before it
takes its next entry.

An operation's bookkeeping is kept to a fraction of the operation.  A
worker appends one record per operation, a tuple of scalars in the field
order of stats.RECORD_FIELDS (a read's record has the first four
fields); BenchmarkRunner.log builds the dicts, with their kind, only
when it is read, and summarize_run folds the tuples.  The gate's read
needs no lock (GlobalClock.release says why), so an update that does not
wait takes two locks: the take lock and the clock's, to record its
commit.  One clock, time.perf_counter, paces the entries and times them:
an operation's start is the instant its latency is measured from.
In-process on the benchmark's validate world (2-vCPU Linux, Python 3.11,
collector on, medians of 15 runs) an update-only run took 6.0 us per
update, against 3.7 us for execute_update alone.  Against a store that
does nothing the run took 1.6 us: 1.0 us in the take, gate, commit and
record loop, 0.4 us in the constructor's walk and 0.25 us in
summarize_run.  The other 0.7 us is not split; the collector's
generation-1 pass over the store's new objects, 0.3 to 0.4 us, is part
of it.

A kind of worker starts only when the schedule holds entries of its
kind: an update-only schedule starts no reader, and a read-only one no
writer.  The thread that calls run() runs the last worker itself instead
of idling in join, so a single worker runs on it and no thread starts:
a new thread on another core pays for a cold cache and for the wake-ups
of its start and join, which took 13 to 23 % of an update-only run's
time on a 2-vCPU machine.
"""

from __future__ import annotations

import functools
import logging
import os
import threading
import time

from ..errors import DeadlockSuspected
from .clock import GlobalClock
from .config import DriverConfig
from .schedule import Schedule
from .stats import RunReport, record_dict, summarize_run
from .triggers import follow_ups

logger = logging.getLogger(__name__)

# How long before its due instant a paced worker stops sleeping and
# starts yielding.  A 0.5 ms wait on an Event overshoots by 0.06 ms at
# the median and 0.07 ms at the 90th percentile on an idle 2-vCPU Linux
# machine, most of it the 50 us timer slack.
WAKE_MARGIN_S = 0.0003


class BenchmarkRunner:
    """One benchmark run against one store.

    Workers append one record per executed operation, in completion
    order, to records: a tuple of opType, scheduledWallMs, actualWallMs
    and latencyMs, and for an update also opIndex, dependencyMs,
    clockAtRelease (the completion clock when the gate let it through)
    and gateWaitMs (stats.RECORD_FIELDS).  log is a read-only view that
    builds each record's dict, with kind ("INS"/"DEL"/"CR"/"SR") derived
    from opType, when it is read.
    """

    def __init__(self, store, schedule: Schedule, config: DriverConfig | None = None):
        self.store = store
        self.schedule = schedule
        self.config = config or DriverConfig()
        self.config.validate()
        # Each kind's entries with their due instants in seconds, so that
        # no worker converts a Fraction under the take lock, and the
        # simulation instants of the updates for the clock.  numerator /
        # denominator is float(Fraction) without its generic
        # numbers.Rational path.
        self._updates: list[tuple] = []
        self._reads: list[tuple] = []
        times: list[int] = []
        add_update, add_read, add_time = self._updates.append, self._reads.append, times.append
        for entry in schedule.entries:
            offset = entry.wall_offset_ms
            due_secs = offset.numerator / offset.denominator / 1000.0
            op = entry.op
            if op is None:
                add_read((entry, due_secs))
                continue
            if op.dependency_time >= op.scheduled_time:
                raise DeadlockSuspected(
                    f"op {entry.op_index} ({op.op_type}) at {op.scheduled_time} depends "
                    f"on {op.dependency_time}, so it would wait for itself")
            add_update((entry, due_secs))
            add_time(op.scheduled_time)
        self.clock = GlobalClock(schedule.cutoff, times)
        self.records: list[tuple] = []
        self._take_lock = threading.Lock()  # one iterator, one caller at a time
        self._abort = threading.Event()
        self._errors: list[BaseException] = []
        self._truncated = False  # an entry lay past the window

    @property
    def log(self) -> list[dict]:
        """The records as dicts, built anew on each read."""
        return [record_dict(record) for record in self.records]

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> RunReport:
        self._start = time.perf_counter()
        workers = []
        for worker, kind, entries, count in (
                (self._write_worker, "writer", self._updates, self.config.write_threads),
                (self._read_worker, "reader", self._reads, self.config.read_threads)):
            if entries:
                pending = iter(entries)
                workers += [(worker, f"{kind}-{i}", pending) for i in range(count)]
        threads = [threading.Thread(target=worker, name=name, args=(pending,), daemon=True)
                   for worker, name, pending in workers[:-1]]
        for thread in threads:
            thread.start()
        if workers:  # the calling thread runs the last worker itself
            worker, _name, pending = workers[-1]
            worker(pending)
        for thread in threads:
            thread.join()

        if self._errors:
            raise self._errors[0]

        wall = time.perf_counter() - self._start
        report = summarize_run(self._measured(), wall,
                               "paced" if self.config.pacing else "throughput")
        report.warnings.extend(self.schedule.warnings)
        if self.config.window_secs is not None and not self._truncated:
            report.schedule_exhausted = True
            report.warnings.append("schedule ended before the measurement window closed")
        if logger.isEnabledFor(logging.INFO):
            delay = report.delay_ms
            logger.info("%s run: %d operations in %.2f s, %s", report.mode,
                        report.total_operations, wall,
                        f"delay p50 {delay['p50']:.3f} ms, p90 {delay['p90']:.3f} ms"
                        if delay else "delay not measured")
        return report

    def _taker(self, entries, yield_):
        """A function that returns the next of entries and its due instant
        in ms, once it is due; None when none is left inside the window or
        the run aborted.  A paced wait calls yield_ until the instant.
        Each worker builds its own, with what it reads bound once."""
        acquire, release = self._take_lock.acquire, self._take_lock.release
        abort, errors, start = self._abort, self._errors, self._start
        window, pacing = self.config.window_secs, self.config.pacing
        perf_counter = time.perf_counter

        def take() -> tuple | None:
            # Not `with lock`: a Lock's __exit__ packs its arguments into a
            # tuple, about 0.1 us more per call (2-vCPU Linux, Python 3.11).
            acquire()
            try:
                taken = next(entries, None)
            finally:
                release()
            if taken is None:
                return None
            entry, due_secs = taken
            if window is not None and due_secs > window:
                self._truncated = True
                return None
            if pacing:
                due = start + due_secs
                delay = due - perf_counter() - WAKE_MARGIN_S
                if delay > 0 and abort.wait(delay):
                    return None
                while perf_counter() < due:
                    yield_()
            if errors:  # the run aborted
                return None
            return entry, due_secs * 1000.0

        return take

    def _fail(self, exc: BaseException) -> None:
        self._errors.append(exc)
        self._abort.set()
        self.clock.halt()

    def _measured(self) -> list[tuple]:
        """The records due inside the window: a short read triggered
        after the window closes runs but is not measured."""
        if self.config.window_secs is None:
            return self.records
        end_ms = self.config.window_secs * 1000.0
        return [record for record in self.records if record[1] <= end_ms]  # scheduledWallMs

    # -- workers -----------------------------------------------------------

    def _write_worker(self, updates) -> None:
        take = self._taker(updates, functools.partial(time.sleep, 0))
        clock, start = self.clock, self._start
        release, wait_covered, mark_done = clock.release, clock.wait_covered, clock.mark_done
        execute_update, append = self.store.execute_update, self.records.append
        perf_counter = time.perf_counter
        while (taken := take()) is not None:
            entry, scheduled_ms = taken
            op = entry.op
            dependency = op.dependency_time
            gate_wait_ms = 0.0
            clock_now = release(dependency)
            if clock_now is None:
                arrived = perf_counter()
                clock_now = wait_covered(dependency)
                if clock_now is None:
                    return
                gate_wait_ms = (perf_counter() - arrived) * 1000.0
            started = perf_counter()
            try:
                execute_update(op)
            except BaseException as exc:  # surface store bugs, do not hang
                self._fail(exc)
                return
            latency_ms = (perf_counter() - started) * 1000.0
            index = entry.op_index
            mark_done(index)
            append((op.op_type, scheduled_ms, (started - start) * 1000.0, latency_ms,
                    index, dependency, clock_now, gate_wait_ms))

    def _read_worker(self, reads) -> None:
        take = self._taker(reads, os.sched_yield)
        try:
            while (taken := take()) is not None:
                entry, scheduled_ms = taken
                self._run_read(entry.query.variant, entry.query.params, entry.query.depth,
                               (entry.seq,), scheduled_ms)
        except BaseException as exc:
            self._fail(exc)

    def _run_read(self, variant: str, params: dict, depth: int, key: tuple,
                  scheduled_ms: float) -> None:
        """Run one read, then the short reads its result triggers, due
        when it answered; key seeds their draw."""
        started = time.perf_counter()
        result = self.store.execute_query(variant, params)
        answered = time.perf_counter()
        self.records.append((variant, scheduled_ms, (started - self._start) * 1000.0,
                             (answered - started) * 1000.0))
        answered_ms = (answered - self._start) * 1000.0
        for child in follow_ups(self.config.seed, key, variant, params, result,
                                self.config.triggers, depth):
            self._run_read(*child, answered_ms)
