"""Factor tables, window selection, path curation, and parameter buckets."""

import random
import statistics
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialbench.errors import ConfigInvalid, InsufficientPairs, NoQualifyingGroup, ParseError
from socialbench.model import KnowsEdge, Lifecycle, Person, TemporalGraph
from socialbench.paramgen import (
    FactorTable,
    ParamGenOptions,
    bfs_distances,
    build_bound_graphs,
    build_factor_tables,
    connected_components,
    curate_reachable_pairs,
    curate_unreachable_pairs,
    generate_parameters,
    read_buckets,
    select_percentile,
    select_window,
    write_buckets,
)
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
        """Independent re-derivation: enumerate gap-delimited runs over the
        sorted rows and rank them by (stdev, -size, median, first key)."""
        table = _table(freqs)
        rows = table.sorted_rows()
        groups = [[rows[0]]]
        for prev, cur in zip(rows, rows[1:]):
            if cur[1] - prev[1] > 0.05 * max(prev[1], 1):
                groups.append([])
            groups[-1].append(cur)
        candidates = [g for g in groups if len(g) >= min_size]
        if not candidates:
            with pytest.raises(NoQualifyingGroup):
                select_window(table, min_size)
            return
        best = min(candidates, key=lambda g: (
            statistics.pstdev([f for _, f in g]), -len(g),
            statistics.median(f for _, f in g), g[0][0]))
        assert select_window(table, min_size) == [k for k, _ in best]


class TestSelectPercentile:
    def test_top_percentile_is_most_frequent_key(self):
        table = _table([3, 1, 4, 1, 5])
        assert select_percentile(table, 1.0) == [(4,)]

    def test_bottom_percentile_is_least_frequent_key(self):
        table = _table([3, 1, 4, 1, 5])
        assert select_percentile(table, 0.01) == [(1,)]

    def test_expansion_alternates_around_anchor(self):
        table = _table([10, 20, 30, 40, 50, 60])
        assert select_percentile(table, 0.6, count=3) == [(3,), (2,), (4,)]

    def test_count_capped_at_table_size(self):
        table = _table([1, 2])
        assert len(select_percentile(table, 0.5, count=10)) == 2

    def test_empty_table_gives_nothing(self):
        assert select_percentile(FactorTable("t", {}), 0.5) == []

    @pytest.mark.parametrize("p,count", [(-0.1, 1), (1.1, 1), (0.5, 0)])
    def test_rejects_bad_arguments(self, p, count):
        with pytest.raises(ValueError):
            select_percentile(_table([1]), p, count)

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=40),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=150, deadline=None)
    def test_first_key_sits_at_percentile_rank(self, freqs, p):
        import math

        table = _table(freqs)
        rows = table.sorted_rows()
        anchor = max(1, math.ceil(p * len(rows))) - 1
        assert select_percentile(table, p)[0] == rows[anchor][0]


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
        assert bound.floor_vertices == {1, 2, 3}
        assert bound.ceiling_vertices == {1, 2, 3, 4, 5}
        assert bound.floor_vertices <= bound.ceiling_vertices

    def test_edge_needs_live_endpoints(self):
        graph = _mini_graph(
            {1: (T0, None), 2: (T0, None), 3: (DAY + 5, None)},
            {(1, 2): (T0, None), (2, 3): (DAY + 5, None),
             (1, 3): (T0, DAY + 9)})
        bound = build_bound_graphs(graph, DAY)
        assert set(bound.floor_adj[1]) == {2}
        assert sorted(bound.ceiling_adj[3]) == [1, 2]

    def test_floor_is_subset_of_ceiling_on_generated_graph(self, graph, cutoff):
        bound = build_bound_graphs(graph, cutoff)
        assert bound.floor_vertices <= bound.ceiling_vertices
        for v, neighbors in bound.floor_adj.items():
            assert set(neighbors) <= set(bound.ceiling_adj.get(v, ()))


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
        with pytest.raises(InsufficientPairs):
            curate_reachable_pairs(bound, 2, 1, seed=0)

    def test_insufficient_pairs_reports_found_count(self):
        bound = build_bound_graphs(_chain_graph([1, 2, 3, 4, 5]), DAY)
        with pytest.raises(InsufficientPairs) as err:
            curate_reachable_pairs(bound, 2, 10, seed=0)
        assert err.value.requested == 10
        assert err.value.found == 3
        assert curate_reachable_pairs(bound, 2, 10, seed=0,
                                      allow_fewer=True) is not None

    def test_unreachable_pairs_cross_components(self):
        graph = _mini_graph(
            {1: (T0, None), 2: (T0, None), 3: (T0, None), 4: (T0, None)},
            {(1, 2): (T0, None), (3, 4): (T0, None)})
        bound = build_bound_graphs(graph, DAY)
        pairs = curate_unreachable_pairs(bound, 4, seed=1)
        assert len(pairs) == 4
        for a, b in pairs:
            assert {a, b} <= bound.floor_vertices
            assert ({a, b} <= {1, 2}) is False
            assert ({a, b} <= {3, 4}) is False

    def test_intraday_bridge_disqualifies_pair(self):
        """Components joined by a person alive only part of the day must not
        produce unreachable pairs: at some instant they are connected."""
        graph = _mini_graph(
            {1: (T0, None), 2: (T0, None), 9: (DAY + 5, None)},
            {(1, 9): (DAY + 5, None), (2, 9): (DAY + 5, None)})
        bound = build_bound_graphs(graph, DAY)
        with pytest.raises(InsufficientPairs):
            curate_unreachable_pairs(bound, 1, seed=0)

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

    def test_parse_error_names_file_and_line(self, buckets, tmp_path):
        write_buckets(buckets, tmp_path / "params")
        victim = sorted((tmp_path / "params").iterdir())[0]
        lines = victim.read_text().splitlines()
        lines[1] = "garbage"
        victim.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_buckets(tmp_path / "params")
        assert err.value.line_no == 2

    def test_options_validation(self):
        with pytest.raises(ConfigInvalid):
            ParamGenOptions(per_day=0).validate()
        with pytest.raises(ConfigInvalid):
            ParamGenOptions(hop_count=0).validate()
        with pytest.raises(ConfigInvalid):
            ParamGenOptions(cr3_duration_days=0).validate()
