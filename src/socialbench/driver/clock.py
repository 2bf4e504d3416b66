"""Completion watermark over the update stream.

The clock value is the simulation timestamp of the longest fully
committed prefix of the update stream: operation i moves it forward
only once every operation before i has also committed.  Gating
dependent work on this watermark rather than on the newest individual
commit means an operation is released only when everything it could
possibly depend on is already in the store.
"""

from __future__ import annotations

import threading


class GlobalClock:
    """Prefix watermark; thread safe."""

    def __init__(self, initial: int, sim_times: list[int]):
        self._initial = initial
        self._times = sim_times
        self._done: set[int] = set()
        self._prefix = 0  # ops [0, _prefix) are all committed
        self._lock = threading.Lock()

    def value(self) -> int:
        with self._lock:
            if self._prefix == 0:
                return self._initial
            return self._times[self._prefix - 1]

    def covered(self, dependency_ms: int) -> bool:
        """True once every operation at or before dependency_ms committed.

        Stricter than value() >= dependency_ms: several operations can
        share one simulation millisecond, and the watermark reads that
        instant as soon as the first of them lands.  Release on the next
        pending operation's time instead, so ties never leak through.
        """
        with self._lock:
            if self._prefix == len(self._times):
                return True
            return self._times[self._prefix] > dependency_ms

    def mark_done(self, index: int) -> None:
        if not 0 <= index < len(self._times):
            raise IndexError(f"operation index {index} out of range")
        with self._lock:
            self._done.add(index)
            while self._prefix in self._done:
                self._done.discard(self._prefix)
                self._prefix += 1

    @property
    def complete(self) -> bool:
        with self._lock:
            return self._prefix == len(self._times)
