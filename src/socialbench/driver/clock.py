"""Completion watermark over the update stream.

The clock value is the simulation timestamp of the longest fully
committed prefix of the update stream: operation i moves it forward
only once every operation before i has also committed.  Gating
dependent work on this watermark rather than on the newest individual
commit means an operation is released only when everything it could
possibly depend on is already in the store.

A writer passes the gate with one read of the watermark: release()
checks coverage and returns the clock value without taking the lock (see
its docstring).  A writer whose dependency is not covered yet blocks in
wait_covered, which rechecks under the lock, until a commit covers it.
A commit in stream order advances the watermark at once; a commit out
of order only records its index.  A commit notifies only when a writer
is blocked, which the lock makes safe: a waiter is counted under the
same lock that a commit holds when it reads the count.
"""

from __future__ import annotations

import threading


class GlobalClock:
    """Prefix watermark; thread safe.  halt() releases every waiter."""

    def __init__(self, initial: int, sim_times: list[int]):
        self._initial = initial
        self._times = sim_times
        self._count = len(sim_times)
        self._done: set[int] = set()
        self._prefix = 0  # ops [0, _prefix) are all committed
        self._lock = threading.Lock()
        self._advanced = threading.Condition(self._lock)
        self._waiters = 0  # writers blocked in wait_covered
        self._halted = False

    def release(self, dependency_ms: int) -> int | None:
        """The clock value, from the same read of the watermark, once every
        operation at or before dependency_ms committed; None until then.

        Stricter than clock value >= dependency_ms: several operations can
        share one simulation millisecond, and the watermark reads that
        instant as soon as the first of them lands.  Release on the next
        pending operation's time instead, so ties never leak through.

        The read takes no lock.  _prefix only grows, by one attribute
        store under the lock, and _times never changes, so a read that
        races a commit sees either the prefix before it or the one after.
        Instants ascend along the stream, so an older prefix can only
        answer "not yet" where a newer one answers with a value, never
        the other way round: a stale read delays a writer into
        wait_covered, which rechecks under the lock, and never releases
        one early.  The value returned is the clock as it stood at the
        read.
        """
        prefix = self._prefix
        if prefix != self._count and self._times[prefix] <= dependency_ms:
            return None
        return self._times[prefix - 1] if prefix else self._initial

    def wait_covered(self, dependency_ms: int) -> int | None:
        """Block until release(dependency_ms) would return the clock value,
        and return that value; None if halted first."""
        with self._advanced:
            while True:
                prefix = self._prefix
                if prefix == self._count or self._times[prefix] > dependency_ms:
                    return self._times[prefix - 1] if prefix else self._initial
                if self._halted:
                    return None
                self._waiters += 1
                try:
                    self._advanced.wait()
                finally:
                    self._waiters -= 1

    def halt(self) -> None:
        with self._advanced:
            self._halted = True
            self._advanced.notify_all()

    def mark_done(self, index: int) -> None:
        if not 0 <= index < self._count:
            raise IndexError(f"operation index {index} out of range")
        lock = self._lock
        lock.acquire()  # not `with`, as in the runner's take
        try:
            if index != self._prefix:
                self._done.add(index)
                return
            prefix, done = index + 1, self._done
            while done and prefix in done:
                done.discard(prefix)
                prefix += 1
            self._prefix = prefix
            if self._waiters:
                self._advanced.notify_all()
        finally:
            lock.release()
