"""Curate query parameters that stay valid for a whole simulated day.

Picking query inputs at random from a changing graph yields noisy,
multi-modal runtimes.  Curation instead selects inputs whose relevant
statistics sit in a tight window, and, for path queries, pairs of
persons whose shortest-path distance provably cannot move all day.

The trick for the path guarantee is a pair of bound graphs per day:
the floor graph keeps only friendships alive from the first to the
last instant of the day, the ceiling graph everything alive at any
point of it.  The true graph at every instant sits between the two,
so a pair at distance 4 in both is at distance 4 all day, and a pair
in different ceiling components can never connect.
"""

import random

from socialbench.datagen import GenConfig, cutoff_instant, generate_temporal_graph
from socialbench.paramgen import (
    ParamGenOptions,
    bfs_distances,
    build_bound_graphs,
    build_factor_tables,
    curate_reachable_pairs,
    curate_unreachable_pairs,
    generate_parameters,
)
from socialbench.simtime import MS_PER_DAY, day_date


def instant_distance(graph, t, src, dst):
    """Shortest-path length over friendships alive exactly at t."""
    alive = {pid for pid, p in graph.persons.items() if p.lifecycle.alive_at(t)}
    adj = {pid: [] for pid in alive}
    for edge in graph.knows.values():
        if edge.lifecycle.alive_at(t) and edge.person1_id in alive \
                and edge.person2_id in alive:
            adj[edge.person1_id].append(edge.person2_id)
            adj[edge.person2_id].append(edge.person1_id)
    return bfs_distances(adj, src).get(dst)


def main():
    cfg = GenConfig(seed=11, num_persons=400)
    graph = generate_temporal_graph(cfg)
    cutoff = cutoff_instant(cfg)

    tables = build_factor_tables(graph)
    print("factor tables driving selection:")
    for name, table in sorted(tables.items()):
        print(f"  {name}: {len(table.rows)} rows")

    day = cutoff + 3 * MS_PER_DAY
    bound = build_bound_graphs(graph, day)
    floor_edges = sum(len(v) for v in bound.floor_adj.values()) // 2
    ceiling_edges = sum(len(v) for v in bound.ceiling_adj.values()) // 2
    print(f"\nbound graphs for {day_date(day)}:")
    print(f"  floor:   {len(bound.floor_adj):4d} persons, "
          f"{floor_edges:4d} friendships (alive all day)")
    print(f"  ceiling: {len(bound.ceiling_adj):4d} persons, "
          f"{ceiling_edges:4d} friendships (alive at some point)")

    reachable = curate_reachable_pairs(bound, k=4, count=5, seed=1)
    unreachable = curate_unreachable_pairs(bound, count=5, seed=1)
    print(f"\ncurated pairs at distance 4 in both bounds: {reachable}")
    print(f"curated pairs split across ceiling components: {unreachable}")

    rng = random.Random(2)
    probes = sorted(rng.randrange(day, day + MS_PER_DAY) for _ in range(6))
    src, dst = reachable[0]
    print(f"\nspot-checking pair {src}->{dst} at random instants of the day:")
    for t in probes:
        print(f"  +{(t - day) // 1000:5d}s  distance {instant_distance(graph, t, src, dst)}")

    buckets = generate_parameters(graph, cutoff, ParamGenOptions(seed=3, per_day=5))
    bucket = buckets[day]
    print(f"\nfull parameter bucket for {day_date(day)}:")
    for variant in sorted(bucket.params):
        sample = bucket.params[variant][0] if bucket.params[variant] else None
        print(f"  {variant:6s} {len(bucket.params[variant])} sets, first: {sample}")


if __name__ == "__main__":
    main()
