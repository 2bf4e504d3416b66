"""The machine's speed, and phase times scaled to a reference speed.

On a shared machine the same work can take half as long again for tens
of seconds at a time, and no median taken within one run removes a
slowdown that lasts longer than the run.  So every timed phase is
bracketed, and where the benchmark drives the work itself also
interleaved, with samples of two fixed meters:

- a pure-Python loop that does what the store does, dict look-ups and
  breadth-first searches over adjacency lists, while allocating next to
  nothing, so that the heap the package leaves behind barely moves it;
- a hand-off: starting a thread and passing it items through a queue,
  as the driver passes operations to its workers.

A phase sampled throughout has as its reference time its wall time
times REFERENCE_S over the median loop taken around and inside it: the
time it would take on a machine where one loop takes exactly
REFERENCE_S.  A phase that runs on the driver's threads and cannot stop
is scaled the same way by the run's median hand-off against
HANDOFF_REFERENCE_S.  A slower program still reads slower; a slower
machine mostly does not.  Both meters are benchmark code only.
"""

from __future__ import annotations

import gc
import queue
import random
import statistics
import threading
import time

# One loop's time on the reference machine (near its fastest times on a
# 2-vCPU 2.0 GHz x86-64 virtual machine under Python 3.11).
REFERENCE_S = 0.0012

# Loops timed at each edge of a phase, and at each tick inside it.
EDGE_SAMPLES = 5
TICK_SAMPLES = 2
# Least wall time between two ticks inside a phase.
TICK_EVERY_S = 0.1

# One hand-off's time on the reference machine, and the hand-offs timed
# at each edge of a phase that runs on threads.
HANDOFF_REFERENCE_S = 0.002
HANDOFF_SAMPLES = 2
HANDOFF_ITEMS = 300


def _graph(nodes: int = 600, degree: int = 6) -> list[list[int]]:
    rng = random.Random(11)
    adjacency: list[set[int]] = [set() for _ in range(nodes)]
    for a in range(nodes):
        for _ in range(degree // 2):
            b = rng.randrange(nodes)
            if b != a:
                adjacency[a].add(b)
                adjacency[b].add(a)
    return [sorted(n) for n in adjacency]


_ADJACENCY = _graph()
_NODES = len(_ADJACENCY)
_DIST = [0] * _NODES
_UNSEEN = [-1] * _NODES
_QUEUE = [0] * _NODES
_TABLE = {key * 7919: key & 255 for key in range(2048)}
_KEYS = [random.Random(7).randrange(2048) * 7919 for _ in range(3_000)]


def _loop() -> int:
    # Allocates next to nothing, so the state of the process's heap,
    # which the package's own work leaves behind, barely moves it.
    dist, queue, table = _DIST, _QUEUE, _TABLE
    check = 0
    for key in _KEYS:
        check ^= table[key]
    for source in (0, 97, 311, 463):
        dist[:] = _UNSEEN
        dist[source] = 0
        queue[0] = source
        head, tail = 0, 1
        while head < tail:
            node = queue[head]
            head += 1
            for nxt in _ADJACENCY[node]:
                if dist[nxt] < 0:
                    dist[nxt] = dist[node] + 1
                    queue[tail] = nxt
                    tail += 1
        check ^= tail & 255
    return check


def sample(count: int) -> list[float]:
    """Seconds each of `count` loops takes now.

    An untimed loop runs first, so that caches the phase just cooled
    weigh on no sample.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _loop()
        times = []
        for _ in range(count):
            start = time.perf_counter()
            _loop()
            times.append(time.perf_counter() - start)
        return times
    finally:
        if enabled:
            gc.enable()


def _handoff() -> float:
    """Seconds to start a thread and pass it HANDOFF_ITEMS through a queue.

    This is what a driver's dispatcher and worker do for each
    operation, without the store: the wake-ups and interpreter hand-offs
    between two threads, which a loop on one thread does not see.
    """
    items: queue.Queue = queue.Queue()
    counts: dict[int, int] = {}

    def consume() -> None:
        while (item := items.get()) is not None:
            counts[item & 255] = counts.get(item & 255, 0) + 1

    worker = threading.Thread(target=consume)
    start = time.perf_counter()
    worker.start()
    for item in range(HANDOFF_ITEMS):
        items.put(item)
    items.put(None)
    worker.join()
    return time.perf_counter() - start


def handoffs(count: int) -> list[float]:
    """Seconds each of `count` hand-offs takes now."""
    return [_handoff() for _ in range(count)]


class Stopwatch:
    """Times one phase and the machine's speed around and inside it.

        with Stopwatch() as watch:
            ...            # calling watch.tick() now and then
        watch.reference_s  # the phase's time at the reference speed

    Loops run at both edges and at each tick() at least TICK_EVERY_S
    after the last; their own time is left out of the phase's.  With
    ticks off, tick() does nothing, and hand-offs are timed at the edges
    too: for phases that run on the driver's threads and cannot stop,
    and for runs that trace the same calls.
    """

    def __init__(self, ticks: bool = True):
        self.ticks = ticks
        self.samples: list[float] = []
        self.handoffs: list[float] = []
        self.wall_s = 0.0
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        self._edge()
        self._start = time.perf_counter()
        return self

    def _edge(self) -> None:
        self.samples += sample(EDGE_SAMPLES)
        if not self.ticks:
            self.handoffs += handoffs(HANDOFF_SAMPLES)

    def tick(self) -> None:
        now = time.perf_counter()
        if not self.ticks or now - self._start < TICK_EVERY_S:
            return
        self.wall_s += now - self._start
        self.samples += sample(TICK_SAMPLES)
        self._start = time.perf_counter()

    def __exit__(self, *_exc) -> None:
        self.wall_s += time.perf_counter() - self._start
        self._edge()

    @property
    def slowdown(self) -> float:
        """The machine's loop time over the reference loop time."""
        return statistics.median(self.samples) / REFERENCE_S

    @property
    def reference_s(self) -> float:
        return self.wall_s / self.slowdown
