"""Factor tables, window selection, path curation, and parameter buckets."""

import hashlib
import json
import logging
import random
import re
import statistics
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialbench.datagen import GenConfig, cutoff_instant, generate_temporal_graph
from socialbench.errors import ConfigInvalid, NoQualifyingGroup, ParseError, SocialBenchError
from socialbench.model import KnowsEdge, Lifecycle, Person, TemporalGraph
from socialbench.paramgen import (
    FactorTable,
    ParamGenOptions,
    bfs_distances,
    build_bound_graphs,
    build_factor_tables,
    curate_reachable_pairs,
    curate_unreachable_pairs,
    generate_parameters,
    read_buckets,
    select_percentile,
    select_window,
    sweep_bound_graphs,
    write_buckets,
)
from socialbench.paramgen.selection import GroupedRows
from socialbench.paramgen.sweep import SweptPool
from socialbench.simtime import MS_PER_DAY, SIM_END, SIM_START, day_start, parse_day


def _table(freqs):
    return FactorTable("t", {(i,): f for i, f in enumerate(freqs)})


class TestSelectWindow:
    def test_low_flat_group_beats_spread(self):
        table = _table([5, 5, 5, 9, 100])
        assert select_window(table, 3) == [(0,), (1,), (2,)]

    def test_uniform_table_selects_everything(self):
        table = _table([7] * 6)
        assert select_window(table, 3) == [(i,) for i in range(6)]

    def test_no_group_large_enough(self):
        table = _table([1, 50, 900])
        with pytest.raises(NoQualifyingGroup) as err:
            select_window(table, 2)
        assert "largest was 1" in str(err.value)

    def test_empty_table(self):
        with pytest.raises(NoQualifyingGroup):
            select_window(FactorTable("t", {}), 1)

    @given(st.lists(st.integers(min_value=0, max_value=10_000),
                    min_size=1, max_size=120),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, freqs, min_size):
        """select_window against an independent re-derivation."""
        table = _table(freqs)
        best = _brute_force_window(table.sorted_rows(), min_size)
        if best is None:
            with pytest.raises(NoQualifyingGroup):
                select_window(table, min_size)
            return
        assert select_window(table, min_size) == best

    @given(st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=60),
           st.integers(min_value=1, max_value=4), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_grouped_rows_under_inserts_in_any_order(self, freqs, min_size, rnd):
        """Rows inserted in any order group and rank as the rows so far do
        from scratch, after every insert."""
        rows = _table(freqs).sorted_rows()
        rnd.shuffle(rows)
        grouped = GroupedRows("t", min_size)
        for count, (key, freq) in enumerate(rows, start=1):
            grouped.insert(key, freq)
            best = _brute_force_window(sorted(rows[:count], key=lambda r: (r[1], r[0])),
                                       min_size)
            if best is None:
                with pytest.raises(NoQualifyingGroup):
                    grouped.window()
            else:
                assert grouped.window() == best


def _brute_force_window(rows, min_size):
    """Independent re-derivation: enumerate gap-delimited runs over the
    sorted rows and rank them by (stdev, -size, median, first key).  None
    when no run is large enough."""
    groups = [[rows[0]]]
    for prev, cur in zip(rows, rows[1:]):
        if cur[1] - prev[1] > 0.05 * max(prev[1], 1):
            groups.append([])
        groups[-1].append(cur)
    candidates = [g for g in groups if len(g) >= min_size]
    if not candidates:
        return None
    best = min(candidates, key=lambda g: (
        statistics.pstdev([f for _, f in g]), -len(g),
        statistics.median(f for _, f in g), g[0][0]))
    return [k for k, _ in best]


class TestSelectPercentile:
    def test_top_percentile_is_most_frequent_key(self):
        table = _table([3, 1, 4, 1, 5])
        assert select_percentile(table, 1.0) == (4,)

    def test_bottom_percentile_is_least_frequent_key(self):
        table = _table([3, 1, 4, 1, 5])
        assert select_percentile(table, 0.01) == (1,)

    def test_empty_table_gives_nothing(self):
        assert select_percentile(FactorTable("t", {}), 0.5) is None

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_rejects_bad_arguments(self, p):
        with pytest.raises(ValueError):
            select_percentile(_table([1]), p)

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=40),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=150, deadline=None)
    def test_first_key_sits_at_percentile_rank(self, freqs, p):
        import math

        table = _table(freqs)
        rows = table.sorted_rows()
        anchor = max(1, math.ceil(p * len(rows))) - 1
        assert select_percentile(table, p) == rows[anchor][0]


class TestFactorTables:
    def test_brute_force_recount(self, graph):
        """Recount everything with independent loops over the raw graph."""
        tables = build_factor_tables(graph)

        friends = Counter()
        pairs = Counter()
        for (a, b) in graph.knows:
            friends[(a,)] += 1
            friends[(b,)] += 1
            ca, cb = graph.persons[a].country_id, graph.persons[b].country_id
            pairs[(min(ca, cb), max(ca, cb))] += 1
        # group-by semantics: inactive entities have no row at all
        assert tables["personNumFriends"].rows == dict(friends)
        assert tables["countryPairsNumFriends"].rows == dict(pairs)

        messages = Counter()
        per_day = Counter()
        for msg in graph.messages.values():
            messages[(msg.creator_person_id,)] += 1
            per_day[(day_start(msg.lifecycle.creation),)] += 1
        assert tables["personNumMessages"].rows == dict(messages)
        assert tables["messageCountPerDay"].rows == dict(per_day)
        assert all(count > 0 for count in messages.values())

    def test_no_zero_rows_for_inactive_persons(self):
        life = Lifecycle(SIM_START, None)
        graph = TemporalGraph(
            persons={1: Person(1, "A", "A", 0, None, frozenset(), life)})
        tables = build_factor_tables(graph)
        assert tables["personNumFriends"].rows == {}
        assert tables["personNumMessages"].rows == {}

    def test_two_person_edge(self):
        life = Lifecycle(SIM_START, None)
        graph = TemporalGraph(
            persons={1: Person(1, "A", "A", 0, None, frozenset(), life),
                     2: Person(2, "B", "B", 0, None, frozenset(), life)},
            knows={(1, 2): KnowsEdge(1, 2, life)})
        tables = build_factor_tables(graph)
        assert tables["personNumFriends"].rows == {(1,): 1, (2,): 1}
        assert tables["countryPairsNumFriends"].rows == {(0, 0): 1}

    def test_sorted_rows_order(self):
        table = FactorTable("t", {(3,): 2, (1,): 2, (2,): 1})
        assert table.sorted_rows() == [((2,), 1), ((1,), 2), ((3,), 2)]


def _mini_graph(person_specs, edge_specs):
    """person_specs: {id: (creation, deletion)}; edge_specs likewise keyed
    by (a, b)."""
    persons = {pid: Person(pid, "P", str(pid), 0, None, frozenset(),
                           Lifecycle(c, d))
               for pid, (c, d) in person_specs.items()}
    knows = {}
    for (a, b), (c, d) in edge_specs.items():
        knows[(a, b)] = KnowsEdge(a, b, Lifecycle(c, d))
    return TemporalGraph(persons=persons, knows=knows)


DAY = parse_day("2012-06-01")
NEXT = DAY + MS_PER_DAY
T0 = SIM_START


class TestBoundGraphs:
    def test_boundary_membership(self):
        graph = _mini_graph({
            1: (T0, None),             # alive forever: floor
            2: (DAY, None),            # created exactly at day start: floor
            3: (DAY, NEXT),            # deleted exactly at day end: floor
            4: (DAY + 5, None),        # created mid-day: ceiling only
            5: (T0, NEXT - 5),         # deleted mid-day: ceiling only
            6: (NEXT, None),           # created at next midnight: neither
            7: (T0, DAY),              # deleted at day start: neither
        }, {})
        bound = build_bound_graphs(graph, DAY)
        assert bound.floor_adj.keys() == {1, 2, 3}
        assert bound.ceiling_adj.keys() == {1, 2, 3, 4, 5}

    def test_edge_needs_live_endpoints(self):
        graph = _mini_graph(
            {1: (T0, None), 2: (T0, None), 3: (DAY + 5, None)},
            {(1, 2): (T0, None), (2, 3): (DAY + 5, None),
             (1, 3): (T0, DAY + 9)})
        bound = build_bound_graphs(graph, DAY)
        assert set(bound.floor_adj[1]) == {2}
        assert sorted(bound.ceiling_adj[3]) == [1, 2]

    def test_sweep_moves_across_day_boundaries(self):
        third = NEXT + MS_PER_DAY
        graph = _mini_graph({
            1: (T0, None),
            2: (NEXT, None),           # created exactly at the second day's start
            3: (DAY, NEXT),            # deleted exactly at the first day's end
            4: (T0, third),            # deleted exactly at the third day's start
            5: (DAY + 5, third + 9),   # created and deleted mid-day
        }, {})
        seen = [(bound.day_start, set(bound.floor_adj), set(bound.ceiling_adj))
                for bound in sweep_bound_graphs(graph, DAY, 3)]
        assert seen == [
            (DAY, {1, 3, 4}, {1, 3, 4, 5}),
            (NEXT, {1, 2, 4, 5}, {1, 2, 4, 5}),
            (third, {1, 2}, {1, 2, 5}),
        ]

    def test_edge_outliving_an_endpoint_leaves_with_it(self):
        graph = _mini_graph(
            {1: (T0, None), 2: (T0, NEXT + 5), 3: (T0, None)},
            {(1, 2): (T0, None), (1, 3): (T0, None)})
        # A swept bound changes with the next day: keep copies.
        adjacency = [tuple({v: list(peers) for v, peers in adj.items()}
                           for adj in (bound.floor_adj, bound.ceiling_adj))
                     for bound in sweep_bound_graphs(graph, DAY, 3)]
        assert adjacency[0] == ({1: [2, 3], 2: [1], 3: [1]},) * 2
        assert adjacency[1] == ({1: [3], 3: [1]}, {1: [2, 3], 2: [1], 3: [1]})
        assert adjacency[2] == ({1: [3], 3: [1]},) * 2

    def test_adjacency_keeps_knows_order_as_edges_come_and_go(self):
        graph = _mini_graph(
            {v: (T0, None) for v in range(1, 6)},
            {(1, 5): (T0, None), (1, 2): (DAY + 5, None), (1, 4): (T0, NEXT + 5),
             (1, 3): (NEXT, None)})
        ceiling = [list(bound.ceiling_adj[1]) for bound in sweep_bound_graphs(graph, DAY, 3)]
        assert ceiling == [[5, 2, 4], [5, 2, 4, 3], [5, 2, 3]]

    def test_bounds_of_a_window_that_starts_mid_day(self):
        start = DAY + 6 * 3_600_000
        graph = _mini_graph({
            1: (DAY + 5, None),                 # before the window: floor
            2: (start, start + MS_PER_DAY),     # exactly the window: floor
            3: (start + 1, None),               # inside it: ceiling only
            4: (T0, start),                     # gone at its start: neither
            5: (start + MS_PER_DAY, None),      # born at its end: neither
        }, {(1, 2): (start, None), (1, 3): (T0, None)})
        bound = build_bound_graphs(graph, start)
        assert bound.day_start == start
        assert bound.floor_adj == {1: [2], 2: [1]}
        assert bound.ceiling_adj == {1: [2, 3], 2: [1], 3: [1]}

    def test_floor_is_subset_of_ceiling_on_generated_graph(self, graph, cutoff):
        bound = build_bound_graphs(graph, cutoff)
        assert bound.floor_adj.keys() <= bound.ceiling_adj.keys()
        for v, neighbors in bound.floor_adj.items():
            assert set(neighbors) <= set(bound.ceiling_adj.get(v, ()))


def _rebuilt_bounds(graph, day):
    """The bound graphs of one day, from every lifecycle: floor is alive
    all day, ceiling alive at the day's first instant the entity exists."""
    end = day + MS_PER_DAY

    def floor(lc):
        return lc.alive_throughout(day, end)

    def ceiling(lc):
        first = max(day, lc.creation)
        return first < end and lc.alive_at(first)

    bounds = []
    for rule in (floor, ceiling):
        adj = {pid: [] for pid, person in graph.persons.items() if rule(person.lifecycle)}
        for (a, b), edge in graph.knows.items():
            if a in adj and b in adj and rule(edge.lifecycle):
                adj[a].append(b)
                adj[b].append(a)
        bounds.append(adj)
    return bounds


class TestSweepMatchesRebuild:
    """Every day of a world with person deletions, swept from its first
    day, against a rebuild from scratch."""

    @pytest.fixture(scope="class")
    def world(self):
        return generate_temporal_graph(_DELETIONS_WORLD)

    def test_bound_graphs(self, world):
        first = day_start(SIM_START)
        days = len(range(first, SIM_END, MS_PER_DAY))
        deleted = {day_start(p.lifecycle.deletion) for p in world.persons.values()
                   if p.lifecycle.deletion is not None}
        assert len(deleted) >= 5
        count = 0
        for index, bound in enumerate(sweep_bound_graphs(world, first, days)):
            day = first + index * MS_PER_DAY
            assert bound.day_start == day
            floor, ceiling = _rebuilt_bounds(world, day)
            assert bound.floor_adj == floor, day
            assert bound.ceiling_adj == ceiling, day
            count += 1
        assert count == days

    def test_ceiling_labels(self, world, graph):
        """The swept ceiling labels equal a fresh labelling on every day of
        both worlds, and each world took both ways of keeping them: joins
        unioned into the day before's labels, and a rebuild."""
        first = day_start(SIM_START)
        days = len(range(first, SIM_END, MS_PER_DAY))
        for each in (graph, world):
            kept = {"unioned": 0, "rebuilt": 0}
            rebuilds = 0
            for bound in sweep_bound_graphs(each, first, days):
                components = bound.ceiling_components
                expected = connected_components(bound.ceiling_adj)
                vertices = sorted(bound.ceiling_adj)
                assert components.labels(vertices) == [expected[v] for v in vertices]
                assert {v: components.label(v) for v in vertices} == expected
                assert components.count == len(set(expected.values()))
                kept["rebuilt" if components.rebuilds > rebuilds else "unioned"] += 1
                rebuilds = components.rebuilds
            assert kept["unioned"] >= 1 and kept["rebuilt"] >= 1, kept

    def test_live_message_pool(self, world):
        first = day_start(cutoff_instant(_DELETIONS_WORLD))
        days = len(range(first, SIM_END, MS_PER_DAY))
        pool = SweptPool(((mid, mid, world.messages[mid].lifecycle)
                          for mid in sorted(world.messages)), first, days)
        for index in range(days):
            day = first + index * MS_PER_DAY
            pool.advance(index)
            assert pool.values == [
                mid for mid, msg in sorted(world.messages.items())
                if msg.lifecycle.alive_throughout(day, day + MS_PER_DAY)], day


def connected_components(adj):
    """Map each vertex to a component label (the smallest id it can reach),
    one breadth-first search per component."""
    label = {}
    for start in sorted(adj):
        if start not in label:
            for node in bfs_distances(adj, start):
                label[node] = start
    return label


class TestBfsHelpers:
    def test_distances_on_path(self):
        adj = {1: {2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}
        assert bfs_distances(adj, 1) == {1: 0, 2: 1, 3: 2, 4: 3}
        assert bfs_distances(adj, 1, max_depth=2) == {1: 0, 2: 1, 3: 2}

    def test_components_labeling(self):
        adj = {1: {2}, 2: {1}, 3: set(), 7: {9}, 9: {7}}
        labels = connected_components(adj)
        assert labels[1] == labels[2] == 1
        assert labels[3] == 3
        assert labels[7] == labels[9] == 7


def _chain_graph(ids, extra_edges=()):
    persons = {pid: (T0, None) for pid in ids}
    edges = {(a, b): (T0, None) for a, b in zip(ids, ids[1:])}
    for spec in extra_edges:
        (a, b), life = spec
        edges[(min(a, b), max(a, b))] = life
    return _mini_graph(persons, edges)


class TestCuration:
    def test_reachable_pairs_on_chain(self):
        bound = build_bound_graphs(_chain_graph([1, 2, 3, 4, 5]), DAY)
        pairs = set(curate_reachable_pairs(bound, 2, 3, seed=0))
        assert pairs == {(1, 3), (2, 4), (3, 5)}

    def test_partial_day_shortcut_disqualifies_pair(self):
        """An edge alive for part of the day shortens the ceiling distance,
        so the pair no longer has the same distance in both bound graphs."""
        graph = _chain_graph([1, 2, 3], extra_edges=[((1, 3), (DAY + 5, DAY + 9))])
        bound = build_bound_graphs(graph, DAY)
        assert curate_reachable_pairs(bound, 2, 1, seed=0) == []

    def test_insufficient_pairs_reports_found_count(self):
        """Fewer pairs than asked are all returned."""
        bound = build_bound_graphs(_chain_graph([1, 2, 3, 4, 5]), DAY)
        pairs = curate_reachable_pairs(bound, 2, 10, seed=0)
        assert sorted(pairs) == [(1, 3), (2, 4), (3, 5)]

    def test_unreachable_pairs_cross_components(self):
        graph = _mini_graph(
            {1: (T0, None), 2: (T0, None), 3: (T0, None), 4: (T0, None)},
            {(1, 2): (T0, None), (3, 4): (T0, None)})
        bound = build_bound_graphs(graph, DAY)
        pairs = curate_unreachable_pairs(bound, 4, seed=1)
        assert len(pairs) == 4
        for a, b in pairs:
            assert {a, b} <= bound.floor_adj.keys()
            assert ({a, b} <= {1, 2}) is False
            assert ({a, b} <= {3, 4}) is False

    def test_intraday_bridge_disqualifies_pair(self):
        """Components joined by a person alive only part of the day must not
        produce unreachable pairs: at some instant they are connected."""
        graph = _mini_graph(
            {1: (T0, None), 2: (T0, None), 9: (DAY + 5, None)},
            {(1, 9): (DAY + 5, None), (2, 9): (DAY + 5, None)})
        bound = build_bound_graphs(graph, DAY)
        assert curate_unreachable_pairs(bound, 1, seed=0) == []

    def test_curation_is_deterministic(self, graph, cutoff):
        bound = build_bound_graphs(graph, cutoff)
        first = curate_reachable_pairs(bound, 4, 10, seed=42)
        second = curate_reachable_pairs(bound, 4, 10, seed=42)
        assert first == second


@pytest.fixture(scope="module")
def buckets(graph, cutoff):
    return generate_parameters(graph, cutoff, ParamGenOptions(seed=5, per_day=10))


class TestBuckets:
    def test_small_graph_windows_fall_back_to_active_rows(self):
        """A graph with fewer active rows than min_group_size still curates:
        the window degrades to every active row instead of aborting."""
        graph = _mini_graph(
            {1: (T0, None), 2: (T0, None), 3: (T0, None), 4: (T0, None)},
            {(1, 2): (T0, None)})
        buckets = generate_parameters(graph, DAY, ParamGenOptions(seed=0, per_day=3),
                                      simulation_end=DAY + 10)
        bucket = buckets[DAY]
        anchors = {p["personId"] for v in ("CR3a", "CR3b") for p in bucket.params[v]}
        assert anchors and anchors <= {1, 2}
        # no messages at all: the SR2 pool falls back to every live person
        assert bucket.params["SR2"]
        assert {p["personId"] for p in bucket.params["SR2"]} <= {1, 2, 3, 4}

    def test_covers_every_stream_day(self, buckets, cutoff):
        days = sorted(buckets)
        assert days[0] == cutoff
        assert days == list(range(cutoff, SIM_END, MS_PER_DAY))

    def test_variants_fully_populated(self, buckets):
        for day, bucket in buckets.items():
            assert not bucket.partial, bucket.warnings
            for variant in ("CR3a", "CR3b", "CR13a", "CR13b",
                            "CR14a", "CR14b", "SR2", "SR6"):
                assert len(bucket.params[variant]) == 10, (day, variant)

    def test_draw_cycles_modulo(self, buckets):
        bucket = next(iter(buckets.values()))
        assert bucket.draw("SR2", 0) == bucket.draw("SR2", 10)
        assert bucket.draw("SR2", 3) == bucket.draw("SR2", 13)

    def test_entities_alive_all_day(self, buckets, graph):
        for day, bucket in buckets.items():
            end = day + MS_PER_DAY
            for variant, entries in bucket.params.items():
                for params in entries:
                    for key in ("personId", "person1Id", "person2Id"):
                        if key in params:
                            lc = graph.persons[params[key]].lifecycle
                            assert lc.alive_throughout(day, end), (day, variant)
                    if "messageId" in params:
                        lc = graph.messages[params["messageId"]].lifecycle
                        assert lc.alive_throughout(day, end), (day, variant)

    def test_cr3_window_closes_before_the_day(self, buckets):
        for day, bucket in buckets.items():
            for params in bucket.params["CR3a"] + bucket.params["CR3b"]:
                window_end = params["startDate"] + params["durationDays"] * MS_PER_DAY
                assert window_end <= day

    def test_pair_distances_verified_independently(self, buckets, graph):
        """BFS from scratch on a locally rebuilt floor and ceiling graph for
        a couple of days."""
        for day in sorted(buckets)[:2]:
            end = day + MS_PER_DAY

            def adjacency(alive):
                adj = {}
                for (a, b), edge in graph.knows.items():
                    if alive(edge.lifecycle) and alive(graph.persons[a].lifecycle) \
                            and alive(graph.persons[b].lifecycle):
                        adj.setdefault(a, set()).add(b)
                        adj.setdefault(b, set()).add(a)
                return adj

            floor = adjacency(lambda lc: lc.alive_throughout(day, end))
            ceiling = adjacency(
                lambda lc: lc.creation < end
                and (lc.deletion is None or lc.deletion > day))

            def dist(adj, src, dst):
                frontier, seen, d = {src}, {src}, 0
                while frontier:
                    if dst in frontier:
                        return d
                    frontier = {n for v in frontier for n in adj.get(v, ())
                                if n not in seen}
                    seen |= frontier
                    d += 1
                return None

            bucket = buckets[day]
            for params in bucket.params["CR13b"]:
                a, b = params["person1Id"], params["person2Id"]
                assert dist(floor, a, b) == 4, (day, a, b)
                assert dist(ceiling, a, b) == 4, (day, a, b)
            for params in bucket.params["CR13a"]:
                a, b = params["person1Id"], params["person2Id"]
                assert dist(ceiling, a, b) is None, (day, a, b)

    def test_determinism(self, graph, cutoff):
        opts = ParamGenOptions(seed=9, per_day=3)
        a = generate_parameters(graph, cutoff, opts)
        b = generate_parameters(graph, cutoff, opts)
        assert {d: x.params for d, x in a.items()} == {d: x.params for d, x in b.items()}

    def test_round_trip(self, buckets, tmp_path):
        write_buckets(buckets, tmp_path / "params")
        loaded = read_buckets(tmp_path / "params")
        assert sorted(loaded) == sorted(buckets)
        for day, bucket in buckets.items():
            assert loaded[day].params == bucket.params

    def test_round_trip_keeps_partial_buckets_and_warnings(self, tmp_path):
        cfg = GenConfig(seed=9, num_persons=60, cutoff_fraction=0.6)
        buckets = generate_parameters(generate_temporal_graph(cfg), cutoff_instant(cfg),
                                      ParamGenOptions(per_day=10))
        assert any(bucket.partial for bucket in buckets.values())
        # The CR3a/CR3b/SR2 draws are with replacement, so a day may hold
        # one parameter set twice, and reading keeps both.
        assert any(len({repr(p) for p in sets}) < len(sets)
                   for bucket in buckets.values() for sets in bucket.params.values())
        write_buckets(buckets, tmp_path / "params")
        loaded = read_buckets(tmp_path / "params")
        assert sorted(loaded) == sorted(buckets)
        for day, bucket in buckets.items():
            assert loaded[day].params == bucket.params
            assert loaded[day].partial == bucket.partial
            assert loaded[day].warnings == bucket.warnings

    def test_a_rewrite_replaces_the_day_files(self, tmp_path):
        directory = tmp_path / "params"
        for cutoff_fraction, days in ((0.8, 220), (0.95, 55)):
            cfg = GenConfig(seed=5, num_persons=80, cutoff_fraction=cutoff_fraction)
            buckets = generate_parameters(generate_temporal_graph(cfg), cutoff_instant(cfg))
            assert len(buckets) == days
            write_buckets(buckets, directory)
            for name in ("notes.txt", "stream.ldjson"):
                (directory / name).write_text("kept\n")
        # Only the day files go; read_buckets would refuse stream.ldjson.
        for name in ("notes.txt", "stream.ldjson"):
            assert (directory / name).read_text() == "kept\n"
        (directory / "stream.ldjson").unlink()
        assert sorted(read_buckets(directory)) == sorted(buckets)

    def test_a_directory_without_parameter_files_names_itself(self, tmp_path):
        missing = tmp_path / "params"
        with pytest.raises(SocialBenchError, match=f"{missing} is not a directory"):
            read_buckets(missing)
        missing.mkdir()
        (missing / "notes.txt").write_text("no buckets here\n")
        with pytest.raises(SocialBenchError, match=f"{missing} holds no"):
            read_buckets(missing)

    def test_parse_error_names_file_and_line(self, buckets, tmp_path):
        write_buckets(buckets, tmp_path / "params")
        victim = sorted((tmp_path / "params").iterdir())[0]
        original = victim.read_text().splitlines()
        for bad in ("garbage", "[]"):
            lines = list(original)
            lines[1] = bad
            victim.write_text("\n".join(lines) + "\n")
            with pytest.raises(ParseError) as err:
                read_buckets(tmp_path / "params")
            assert err.value.line_no == 2

    @pytest.mark.parametrize("record", [
        {"query": "CR14b", "params": {"person1Id": 1}},
        {"query": "CR14b", "params": {"person1Id": 1, "person2Id": 2, "personId": 3}},
        {"query": "CR13a", "params": {"person1Id": 1, "person2Id": "2"}},
        {"query": "CR3a", "params": {"personId": 1, "countryXId": 2, "countryYId": 3,
                                     "startDate": 4, "durationDays": 1.5}},
        {"query": "SR2", "params": {"personId": True}},
        {"query": "SR6", "params": 5},
        {"query": "SR6", "params": [5]},
        {"query": "SR7", "params": {"messageId": 5}},
        {"query": ["SR6"], "params": {"messageId": 5}},
    ])
    def test_params_must_fit_their_variant(self, record, tmp_path):
        """A line the store could not run fails the load, not the run."""
        directory = tmp_path / "params"
        directory.mkdir()
        good = {"query": "SR6", "params": {"messageId": 5}}
        (directory / "2012-11-02.ldjson").write_text(
            json.dumps(good) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ParseError) as err:
            read_buckets(directory)
        assert err.value.line_no == 2
        (directory / "2012-11-02.ldjson").write_text(json.dumps(good) + "\n")
        assert next(iter(read_buckets(directory).values())).params["SR6"] == [good["params"]]

    @pytest.mark.parametrize("record", [
        {"warning": {"not": "text"}},
        {"params": {"personId": 1}, "query": "SR2", "warning": 7},
        {"params": {"personId": 1}, "query": "SR2", "warning": "partial day"},
        {"warning": None},
    ])
    def test_a_warning_line_is_exactly_its_text(self, record, tmp_path):
        """A line with a warning key loads only as {"warning": <str>}; any
        other such line fails the load, naming the file and line."""
        directory = tmp_path / "params"
        directory.mkdir()
        path = directory / "2012-11-02.ldjson"
        warning = {"warning": "partial day"}
        path.write_text(json.dumps(warning) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:2: ") as err:
            read_buckets(directory)
        assert err.value.line_no == 2
        path.write_text(json.dumps(warning) + "\n")
        assert next(iter(read_buckets(directory).values())).warnings == ["partial day"]

    def test_cutoff_after_simulation_end_gives_no_buckets(self):
        graph = _chain_graph([1, 2, 3])
        assert generate_parameters(graph, DAY + 2 * MS_PER_DAY, ParamGenOptions(),
                                   simulation_end=DAY) == {}

    def test_every_person_fallback_pool_is_in_id_order(self):
        """With no messages the SR2 pool falls back to every live person, in
        id order whatever order the graph holds them in."""
        specs = {pid: (T0, None) for pid in range(1, 9)}
        forward = _mini_graph(specs, {})
        backward = _mini_graph(dict(reversed(specs.items())), {})
        assert list(backward.persons) != sorted(backward.persons)
        opts = ParamGenOptions(seed=4, per_day=10)
        picks = [[p["personId"] for p in
                  generate_parameters(g, DAY, opts, simulation_end=DAY)[DAY].params["SR2"]]
                 for g in (forward, backward)]
        assert picks[0] == picks[1]
        assert len(set(picks[0])) > 1

    def test_progress_is_logged(self, caplog):
        """One DEBUG line a day with the ceiling's component count, and one
        INFO line with the days on which something left the ceiling."""
        worlds = (GenConfig(seed=9, num_persons=60, cutoff_fraction=0.98), _DELETIONS_WORLD)
        for cfg, least_rebuilt in zip(worlds, (0, 1)):
            caplog.clear()
            graph = generate_temporal_graph(cfg)
            with caplog.at_level(logging.DEBUG, logger="socialbench.paramgen.buckets"):
                buckets = generate_parameters(graph, cutoff_instant(cfg),
                                              ParamGenOptions(per_day=2))
            records = [r for r in caplog.records if r.name == "socialbench.paramgen.buckets"]
            per_day = [r.getMessage() for r in records if r.levelno == logging.DEBUG]
            assert len(per_day) == len(buckets)
            assert all("floor" in line and "ceiling" in line and "pairs" in line
                       for line in per_day)
            days = len(buckets)
            counts, rebuilt = [], 0
            before = (set(), set())
            for bound in sweep_bound_graphs(graph, min(buckets), days):
                counts.append(len(set(connected_components(bound.ceiling_adj).values())))
                now = (set(bound.ceiling_adj),
                       {(a, b) for a, peers in bound.ceiling_adj.items() for b in peers})
                rebuilt += bool(before[0] - now[0] or before[1] - now[1])
                before = now
            assert [f"{count} components;" in line
                    for line, count in zip(per_day, counts)] == [True] * days
            assert rebuilt >= least_rebuilt
            done = [r for r in records if r.levelno == logging.INFO]
            assert len(done) == 1
            partial = sum(bucket.partial for bucket in buckets.values())
            assert (f"curated {days} days, {partial} partial, ceiling components rebuilt "
                    f"on {rebuilt}, in ") in done[0].getMessage()

    def test_options_validation(self):
        with pytest.raises(ConfigInvalid):
            ParamGenOptions(per_day=0)
        with pytest.raises(ConfigInvalid):
            ParamGenOptions(hop_count=0)
        with pytest.raises(ConfigInvalid):
            ParamGenOptions(cr3_duration_days=0)


def _buckets_digest(buckets, directory):
    write_buckets(buckets, directory)
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# 329 days, every one partial, persons deleted on nine of them.
_DELETIONS_WORLD = GenConfig(seed=9, num_persons=60, cutoff_fraction=0.7,
                             person_deletion_rate=0.3)


class TestGoldenParameters:
    """The written buckets, warnings and order included, are pinned by hash:
    a faster paramgen must curate exactly the same parameters."""

    def test_shared_world(self, buckets, tmp_path):
        assert _buckets_digest(buckets, tmp_path) == (
            "c568bc66ba73b6fc512ea1d5e5cee366c9142f0b34c0da0e2685b27100b59530")

    def test_world_with_person_deletions(self, tmp_path):
        cfg = _DELETIONS_WORLD
        buckets = generate_parameters(generate_temporal_graph(cfg), cutoff_instant(cfg),
                                      ParamGenOptions(seed=3, per_day=10))
        assert _buckets_digest(buckets, tmp_path) == (
            "c67ae53fc4fff7fa0b81f06808102c185938774c725ecd1e56a3f7a3d30d8bee")
