"""Day-by-day sweeps over lifecycles.

Paramgen asks, for every day from the cutoff on, which entities count on
that day: those alive through the whole day (the floor rule) or those
alive at some instant of it (the ceiling rule).  A lifecycle is one
half-open interval, so the days on which it counts form one contiguous
range of day indices.  A sweep computes that range once per entity and
applies the joins and leaves as the days advance, instead of testing
every entity again on every day.  Components keeps a graph's connected
components under such joins.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable

from ..model import Lifecycle
from ..simtime import MS_PER_DAY


def day_span(lifecycle: Lifecycle, first_day: int, days: int,
             whole_day: bool = True) -> range:
    """The indices i in [0, days) of the days [first_day + i * MS_PER_DAY,
    + MS_PER_DAY) on which lifecycle is alive at every instant (whole_day)
    or at some instant (not whole_day)."""
    creation = lifecycle.creation - first_day
    deletion = None if lifecycle.deletion is None else lifecycle.deletion - first_day
    if whole_day:
        # creation <= day start, and deletion >= day end
        start = -(-creation // MS_PER_DAY)
        stop = days if deletion is None else deletion // MS_PER_DAY
    else:
        # creation < day end, and deletion > day start
        start = creation // MS_PER_DAY
        stop = days if deletion is None else -(-deletion // MS_PER_DAY)
    return range(max(start, 0), min(stop, days))


class DayEvents:
    """The items that join and the items that leave on each of `days` days."""

    __slots__ = ("joins", "leaves")

    def __init__(self, days: int):
        self.joins: list[list] = [[] for _ in range(days)]
        self.leaves: list[list] = [[] for _ in range(days)]

    def add(self, span: range, item) -> None:
        """Schedule item to count on the days of span."""
        if span:
            self.joins[span.start].append(item)
            if span.stop < len(self.leaves):
                self.leaves[span.stop].append(item)


class KeyedList:
    """Values kept in the order of their keys under inserts and removals.

    `values` is a plain list, so callers read it, index it and draw from
    it as they would any list.
    """

    __slots__ = ("keys", "values")

    def __init__(self):
        self.keys: list = []
        self.values: list = []

    def insert(self, key, value) -> None:
        at = bisect_left(self.keys, key)
        self.keys.insert(at, key)
        self.values.insert(at, value)

    def remove(self, key) -> None:
        at = bisect_left(self.keys, key)
        del self.keys[at]
        del self.values[at]


class SweptPool(KeyedList):
    """The values of the entries alive all day, in key order, day by day.

    `entries` are (key, value, lifecycle) triples in key order, so the
    first day's joins append.  Call advance(0), advance(1), ... in turn;
    `values` then holds what a filter over every entry would give.
    """

    __slots__ = ("_events",)

    def __init__(self, entries: Iterable[tuple], first_day: int, days: int):
        super().__init__()
        self._events = DayEvents(days)
        for key, value, lifecycle in entries:
            self._events.add(day_span(lifecycle, first_day, days), (key, value))

    def advance(self, index: int) -> None:
        for key, _ in self._events.leaves[index]:
            self.remove(key)
        for key, value in self._events.joins[index]:
            self.insert(key, value)


class Components:
    """Connected components of a graph that gains vertices and edges
    (union-find).  A component's label is its smallest vertex, so a union
    makes the smaller root the parent.

    Removals are not supported: after one, rebuild from the adjacency.
    """

    __slots__ = ("parent", "count", "rebuilds")

    def __init__(self):
        self.parent: dict[int, int] = {}
        self.count = 0
        self.rebuilds = 0

    def add(self, vertex: int) -> None:
        self.parent[vertex] = vertex
        self.count += 1

    def label(self, vertex: int) -> int:
        """The smallest vertex of vertex's component."""
        parent = self.parent
        while (up := parent[vertex]) != vertex:
            # Path halving: point every other vertex on the way at its
            # grandparent.
            parent[vertex] = vertex = parent[up]
        return vertex

    def labels(self, vertices: list[int]) -> list[int]:
        """The label of each of vertices, in order."""
        parent, label = self.parent, self.label
        # Most vertices hang right below their root; the rest take a walk.
        ups = [parent[vertex] for vertex in vertices]
        return [up if parent[up] == up else label(vertex)
                for vertex, up in zip(vertices, ups)]

    def union(self, a: int, b: int) -> None:
        a, b = self.label(a), self.label(b)
        if a != b:
            if a < b:
                self.parent[b] = a
            else:
                self.parent[a] = b
            self.count -= 1

    def rebuild(self, adj: dict[int, list[int]]) -> None:
        """Label the components of adj from scratch, one search each from
        its smallest vertex, which every member then points at."""
        parent: dict[int, int] = {}
        self.count = 0
        self.rebuilds += 1
        for root in sorted(adj):
            if root in parent:
                continue
            self.count += 1
            parent[root] = root
            stack = [root]
            while stack:
                for peer in adj[stack.pop()]:
                    if peer not in parent:
                        parent[peer] = root
                        stack.append(peer)
        self.parent = parent
