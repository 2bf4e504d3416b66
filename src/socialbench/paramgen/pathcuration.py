"""Curation of friendship pairs whose distance is stable for a whole day.

Two bounding graphs pin the distance down.  The floor graph keeps only
persons and knows edges alive through every instant of the day; the
ceiling graph keeps everything alive at any instant of it.  Whatever the
live graph looks like at a particular millisecond of that day, it sits
between the two, so:

  * a pair at distance k in the floor AND in the ceiling is at distance
    exactly k all day (extra ceiling edges could only shorten paths, and
    they do not);
  * two floor vertices in different ceiling components can never be
    connected during the day, no matter which edges are live.

The days are swept, not rebuilt: each person and knows edge joins and
leaves each bound once, on the days its lifecycle gives.  The ceiling's
component labels are swept with it.  Joins only merge components, so on
a day where nothing leaves the ceiling the joined persons and edges are
unioned into the day before's labels; on the few days where a person or
an edge leaves it, the labels are rebuilt from that day's ceiling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from ..model import TemporalGraph
from ..rng import shuffle
from ..simtime import MS_PER_DAY
from .sweep import Components, DayEvents, KeyedList, day_span


@dataclass
class DayBoundGraphs:
    """Floor and ceiling friendship graphs for one simulation day.

    One that sweep_bound_graphs yields is the sweep's own state: it holds
    only until the next day is drawn.
    """

    day_start: int
    # Each bound's persons are its adjacency's keys.
    floor_adj: dict[int, list[int]] = field(default_factory=dict)
    ceiling_adj: dict[int, list[int]] = field(default_factory=dict)
    # Union-find labels of the ceiling graph's components; their
    # `rebuilds` counts the days swept so far on which they were rebuilt.
    ceiling_components: Components = field(default_factory=Components)


def sweep_bound_graphs(graph: TemporalGraph, first_day: int,
                       days: int) -> Iterator[DayBoundGraphs]:
    """The bound graphs of `days` consecutive days from first_day, in order.

    Each person and knows edge is scheduled once per bound, on the range
    of days it counts on there; an edge's range is cut to its endpoints'.
    One DayBoundGraphs is updated in place and yielded for each day, so a
    yielded bound holds only until the next day is drawn.  Every adjacency
    list stays in graph.knows order, as a rebuild from scratch makes it,
    so searches over it visit vertices in the same order.  The ceiling's
    components take the day's joins, or are rebuilt on a day where
    anything leaves the ceiling.
    """
    bound = DayBoundGraphs(day_start=first_day)
    sides = []
    for whole_day, adj in ((True, bound.floor_adj), (False, bound.ceiling_adj)):
        spans = {pid: day_span(person.lifecycle, first_day, days, whole_day)
                 for pid, person in graph.persons.items()}
        persons = DayEvents(days)
        for pid, span in spans.items():
            persons.add(span, pid)
        edges = DayEvents(days)
        for index, ((p1, p2), edge) in enumerate(graph.knows.items()):
            span = day_span(edge.lifecycle, first_day, days, whole_day)
            span1, span2 = spans[p1], spans[p2]
            edges.add(range(max(span.start, span1.start, span2.start),
                            min(span.stop, span1.stop, span2.stop)), (index, p1, p2))
        sides.append((adj, {}, persons, edges))
    ceiling_persons, ceiling_edges = sides[1][2:]
    components = bound.ceiling_components

    for index in range(days):
        bound.day_start = first_day + index * MS_PER_DAY
        # An edge leaves no later than its endpoints and joins no earlier.
        for adj, by_edge, persons, edges in sides:
            for edge_index, p1, p2 in edges.leaves[index]:
                by_edge[p1].remove(edge_index)
                by_edge[p2].remove(edge_index)
            for pid in persons.leaves[index]:
                del adj[pid], by_edge[pid]
            for pid in persons.joins[index]:
                by_edge[pid] = KeyedList()
                adj[pid] = by_edge[pid].values
            for edge_index, p1, p2 in edges.joins[index]:
                by_edge[p1].insert(edge_index, p2)
                by_edge[p2].insert(edge_index, p1)
        if ceiling_persons.leaves[index] or ceiling_edges.leaves[index]:
            components.rebuild(bound.ceiling_adj)
        else:
            for pid in ceiling_persons.joins[index]:
                components.add(pid)
            for _, p1, p2 in ceiling_edges.joins[index]:
                components.union(p1, p2)
        yield bound


def build_bound_graphs(graph: TemporalGraph, day_start: int) -> DayBoundGraphs:
    """The bound graphs of the day-long window starting at any instant."""
    return next(sweep_bound_graphs(graph, day_start, 1))


def bfs_distances(adj: dict[int, list[int]], source: int,
                  max_depth: int | None = None) -> dict[int, int]:
    """Hop counts from source; vertices beyond max_depth are omitted.

    The counts are inserted in breadth-first order, one level at a time;
    curate_reachable_pairs draws its targets in that order.
    """
    dist = {source: 0}
    frontier = [source]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        reached = []
        for node in frontier:
            for peer in adj.get(node, ()):
                if peer not in dist:
                    dist[peer] = depth
                    reached.append(peer)
        frontier = reached
    return dist


def curate_reachable_pairs(bound: DayBoundGraphs, k: int, count: int,
                           seed: int) -> list[tuple[int, int]]:
    """Up to count distinct person pairs at hop distance exactly k all day.

    A pair qualifies when both bounding graphs agree on distance k.  The
    search order is seeded so the same inputs yield the same pairs; a day
    with fewer qualifying pairs returns the ones it has.
    """
    rng = random.Random(seed)
    sources = sorted(bound.floor_adj)
    shuffle(rng, sources)

    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for source in sources:
        if len(pairs) >= count:
            break
        floor_dist = bfs_distances(bound.floor_adj, source, max_depth=k)
        targets = [v for v, d in floor_dist.items() if d == k]
        if not targets:
            continue
        ceiling_dist = bfs_distances(bound.ceiling_adj, source, max_depth=k)
        shuffle(rng, targets)
        for target in targets:
            if ceiling_dist.get(target) != k:
                continue
            pair = (source, target) if source < target else (target, source)
            if pair in seen:
                continue
            seen.add(pair)
            pairs.append(pair)
            if len(pairs) >= count:
                break
    return pairs


def curate_unreachable_pairs(bound: DayBoundGraphs, count: int,
                             seed: int) -> list[tuple[int, int]]:
    """Up to count distinct person pairs that no live edge set can
    connect that day."""
    rng = random.Random(seed)
    floor = sorted(bound.floor_adj)
    by_component: dict[int, list[int]] = {}
    for vertex, label in zip(floor, bound.ceiling_components.labels(floor)):
        by_component.setdefault(label, []).append(vertex)
    components = [by_component[label] for label in sorted(by_component)]

    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    if len(components) >= 2:
        attempts = 0
        # Distinct cross-component pairs; bail out once the draw space is
        # clearly exhausted.
        limit = max(200, 20 * count)
        while len(pairs) < count and attempts < limit:
            attempts += 1
            ca, cb = rng.sample(range(len(components)), 2)
            a = rng.choice(components[ca])
            b = rng.choice(components[cb])
            pair = (a, b) if a < b else (b, a)
            if pair in seen:
                continue
            seen.add(pair)
            pairs.append(pair)
    return pairs
