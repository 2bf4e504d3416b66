"""Correctness checks that need no saved copy of earlier output.

Each check counts what it attempted and every failure it finds in the
run's ledger.  The expected answers come from
the generator's lifecycles, the parameter curator's guarantees,
networkx on the ground-truth graph, and a second store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

COLLECTIONS = ("persons", "forums", "messages", "knows", "likes", "members")


@dataclass
class Ledger:
    """Operations attempted and failed, with the failures broken down."""

    attempted: int = 0
    failed: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def fail(self, what: str, count: int = 1, note: str | None = None) -> None:
        if count:
            self.failed += count
            self.failures[what] = self.failures.get(what, 0) + count
            if note and len(self.notes) < 20:
                self.notes.append(f"{what}: {note}")


def ground_truth(graph, instant: int) -> dict[str, set]:
    """Keys of the generated entities alive at an instant, per collection."""
    return {coll: {key for key, entity in getattr(graph, coll).items()
                   if entity.lifecycle.alive_at(instant)}
            for coll in COLLECTIONS}


def check_state(ledger: Ledger, what: str, store, graph, instant: int,
                truth_cache: dict) -> None:
    """One attempted check: the store's live keys equal the ground truth."""
    ledger.attempted += 1
    truth = truth_cache.get(instant)
    if truth is None:
        truth = truth_cache[instant] = ground_truth(graph, instant)
    state = store.state_at()
    wrong = sum(len(set(state[coll]) ^ truth[coll]) for coll in COLLECTIONS)
    if wrong:
        ledger.fail(what, 1, f"{wrong} entities differ from the generator at {instant}")


def check_path_guarantees(ledger: Ledger, answers: list[tuple], hop_count: int) -> None:
    """Curated pairs: CR13b at hop_count, CR13a unreachable, CR14a None."""
    for _pos, variant, params, result in answers:
        if variant == "CR13b":
            bad = result.get("shortestPathLength") != hop_count
        elif variant == "CR13a":
            bad = result.get("shortestPathLength") != -1
        elif variant == "CR14a":
            bad = result is not None
        else:
            continue
        if bad:
            ledger.fail("replay.path_guarantee", 1, f"{variant} {params} -> {result}")


def answers_match(variant: str, a, b) -> bool:
    """The benchmark's own comparison of two stores' answers."""
    if variant.startswith("CR14"):
        if a is None or b is None:
            return a is None and b is None
        return a["weight"] == b["weight"]
    if variant.startswith(("INS", "DEL")):
        return a.get("cascadeNodes") == b.get("cascadeNodes")
    return a == b


def count_divergences(ledger: Ledger, results_a: list, results_b: list) -> None:
    """Compare every answer of two lockstep stores, not only the first few."""
    if len(results_a) != len(results_b):
        ledger.fail("validate.divergence", abs(len(results_a) - len(results_b)),
                    "the stores answered different numbers of operations")
    for (variant, a), (_, b) in zip(results_a, results_b):
        if not answers_match(variant, a, b):
            ledger.fail("validate.divergence", 1, f"{variant}: {a} != {b}")


def _weight(interactions: int) -> int:
    return max(math.floor(40.0 - math.sqrt(interactions) + 0.5), 1)


def _nx_graphs(nx, graph, instant: int):
    persons = {pid for pid, p in graph.persons.items() if p.lifecycle.alive_at(instant)}
    knows = nx.Graph()
    knows.add_nodes_from(persons)
    knows.add_edges_from(pair for pair, edge in graph.knows.items()
                         if edge.lifecycle.alive_at(instant))
    messages = {mid: m for mid, m in graph.messages.items()
                if m.lifecycle.alive_at(instant)}
    interactions: dict[tuple[int, int], int] = {}
    for m in messages.values():
        parent = messages.get(m.reply_to_message_id)
        if parent is None or parent.creator_person_id == m.creator_person_id:
            continue
        a, b = parent.creator_person_id, m.creator_person_id
        pair = (min(a, b), max(a, b))
        interactions[pair] = interactions.get(pair, 0) + 1
    weighted = nx.Graph()
    weighted.add_nodes_from(persons)
    for a, b in knows.edges():
        count = interactions.get((min(a, b), max(a, b)), 0)
        if count >= 1:
            weighted.add_edge(a, b, weight=_weight(count))
    return knows, weighted


def path_samples(schedule, answers: list[tuple], count: int) -> list[tuple]:
    """Up to count path answers, evenly spread, each with the instant it saw.

    An answer qualifies when no update shares the instant of the last
    update before it, so the ground truth at that instant is exactly the
    state the query read.
    """
    entries = schedule.entries
    before: dict[int, int | None] = {}
    after: dict[int, int | None] = {}
    last = None
    for pos, entry in enumerate(entries):
        if entry.op is not None:
            last = entry.op.scheduled_time
        else:
            before[pos] = last
    last = None
    for pos in range(len(entries) - 1, -1, -1):
        if entries[pos].op is not None:
            last = entries[pos].op.scheduled_time
        else:
            after[pos] = last
    eligible = [(before[pos], variant, params, result)
                for pos, variant, params, result in answers
                if before[pos] is not None
                and (after[pos] is None or after[pos] > before[pos])]
    if not eligible or count <= 0:
        return []
    step = max(1, len(eligible) // count)
    return eligible[::step][:count]


def check_with_networkx(ledger: Ledger, graph, samples: list[tuple],
                        expected: dict) -> None:
    """Recompute sampled CR13 lengths and CR14 weights on the ground truth.

    expected caches networkx's answers across rounds, keyed by the
    instant, variant and pair.
    """
    import networkx as nx

    built: dict[int, tuple] = {}
    for instant, variant, params, result in samples:
        ledger.attempted += 1
        source, target = params["person1Id"], params["person2Id"]
        key = (instant, variant, source, target)
        if key not in expected:
            if instant not in built:
                built[instant] = _nx_graphs(nx, graph, instant)
            knows, weighted = built[instant]
            present = source in knows and target in knows
            if variant.startswith("CR13"):
                answer = -1
                if present and nx.has_path(knows, source, target):
                    answer = nx.shortest_path_length(knows, source, target)
            else:
                answer = None
                if present and nx.has_path(weighted, source, target):
                    answer = nx.dijkstra_path_length(weighted, source, target)
            expected[key] = answer
        if variant.startswith("CR13"):
            got = result.get("shortestPathLength")
        else:
            got = None if result is None else result["weight"]
        if got != expected[key]:
            ledger.fail("replay.networkx", 1,
                        f"{variant} {params}: store {got}, networkx {expected[key]}")
