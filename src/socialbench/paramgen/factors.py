"""Factor tables: summary statistics of the temporal graph.

Counts cover the full generated history, deletions included; the tables
exist to rank keys by frequency so parameter selection can aim at stable
regions of the distribution, not to reflect any single instant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..model import TemporalGraph
from ..simtime import day_start


@dataclass
class FactorTable:
    """Keyed frequency rows. Keys are tuples; frequencies are counts."""

    name: str
    rows: dict[tuple, int] = field(default_factory=dict)

    def add(self, key: tuple) -> None:
        self.rows[key] = self.rows.get(key, 0) + 1

    def sorted_rows(self) -> list[tuple[tuple, int]]:
        """Rows ordered by ascending frequency, ties by key."""
        return sorted(self.rows.items(), key=lambda kv: (kv[1], kv[0]))


def build_factor_tables(graph: TemporalGraph) -> dict[str, FactorTable]:
    """The four tables parameter curation draws from.

    countryPairsNumFriends counts friendships between (unordered) country
    pairs; personNumFriends and personNumMessages count per-person degree
    and authored messages; messageCountPerDay counts message creations per
    UTC day.

    Tables are group-by counts: an entity with nothing to count has no
    row.  Keeping zero rows out matters downstream, where the lowest
    variance window would otherwise always be the (large, constant)
    inactive group and selection would anchor on entities the queries
    cannot do any work against.
    """
    country_pairs = FactorTable("countryPairsNumFriends")
    person_friends = FactorTable("personNumFriends")
    person_messages = FactorTable("personNumMessages")
    per_day = FactorTable("messageCountPerDay")

    for (a, b) in graph.knows:
        ca = graph.persons[a].country_id
        cb = graph.persons[b].country_id
        country_pairs.add((min(ca, cb), max(ca, cb)))
        person_friends.add((a,))
        person_friends.add((b,))

    for msg in graph.messages.values():
        person_messages.add((msg.creator_person_id,))
        per_day.add((day_start(msg.lifecycle.creation),))

    return {
        "countryPairsNumFriends": country_pairs,
        "personNumFriends": person_friends,
        "personNumMessages": person_messages,
        "messageCountPerDay": per_day,
    }
