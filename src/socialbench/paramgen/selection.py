"""Selection rules over factor tables.

Both selectors are deterministic: rows are ordered by (frequency, key)
before anything else happens, so equal-frequency ties never depend on
dict order.
"""

from __future__ import annotations

import math
import statistics

from ..errors import NoQualifyingGroup
from .factors import FactorTable

# A new group starts when the next frequency exceeds the current one by
# more than this fraction of the current frequency.
GAP_FRACTION = 0.05


def select_window(table: FactorTable, min_group_size: int) -> list[tuple]:
    """Keys of the flattest frequency band of at least min_group_size rows.

    Rows sorted by frequency are grouped greedily while adjacent
    frequencies stay within GAP_FRACTION of each other; among groups of
    sufficient size the one with the smallest standard deviation wins
    (ties: larger group, then smaller median frequency).  Selecting from a
    flat band keeps the runtime of queries parameterized by these keys
    stable regardless of which key a run draws.
    """
    rows = table.sorted_rows()
    if not rows:
        raise NoQualifyingGroup(f"{table.name}: table is empty")

    groups: list[list[tuple[tuple, int]]] = [[rows[0]]]
    for row in rows[1:]:
        prev_freq = groups[-1][-1][1]
        if row[1] - prev_freq > GAP_FRACTION * max(prev_freq, 1):
            groups.append([row])
        else:
            groups[-1].append(row)

    qualifying = [g for g in groups if len(g) >= min_group_size]
    if not qualifying:
        raise NoQualifyingGroup(
            f"{table.name}: no group of size >= {min_group_size} (largest was "
            f"{max(len(g) for g in groups)})")

    def rank(group: list[tuple[tuple, int]]):
        freqs = [f for _, f in group]
        return (statistics.pstdev(freqs), -len(group), statistics.median(freqs), group[0][0])

    best = min(qualifying, key=rank)
    return [key for key, _ in best]


def select_percentile(table: FactorTable, p: float, count: int = 1) -> list[tuple]:
    """The count keys nearest the p-th percentile of the frequency ranking.

    Nearest-rank: the anchor is row ceil(p * N) (1-based) of the ascending
    frequency order; additional keys expand outward from it, preferring the
    lower index on distance ties.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"percentile {p} outside [0, 1]")
    if count < 1:
        raise ValueError("count must be at least 1")
    rows = table.sorted_rows()
    if not rows:
        return []
    n = len(rows)
    anchor = max(1, math.ceil(p * n)) - 1
    order = sorted(range(n), key=lambda i: (abs(i - anchor), i))
    return [rows[i][0] for i in order[:count]]
