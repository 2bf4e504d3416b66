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
    return select_window_of_rows(table.name, table.sorted_rows(), min_group_size)


def select_window_of_rows(name: str, rows: list[tuple[tuple, int]], min_group_size: int,
                          spreads: dict | None = None) -> list[tuple]:
    """select_window over (key, frequency) rows already in sorted_rows order.

    spreads memoizes each group's standard deviation and median by its
    frequencies.  Both are exact over the integers, and so slow; a caller
    that asks again about nearly the same rows passes one dict each time.
    """
    spreads = {} if spreads is None else spreads
    if not rows:
        raise NoQualifyingGroup(f"{name}: table is empty")

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
            f"{name}: no group of size >= {min_group_size} (largest was "
            f"{max(len(g) for g in groups)})")

    def rank(group: list[tuple[tuple, int]]):
        freqs = tuple(f for _, f in group)
        if freqs not in spreads:
            spreads[freqs] = statistics.pstdev(freqs), statistics.median(freqs)
        spread, median = spreads[freqs]
        return (spread, -len(group), median, group[0][0])

    best = min(qualifying, key=rank)
    return [key for key, _ in best]


def select_percentile(table: FactorTable, p: float) -> tuple | None:
    """The key at the p-th percentile of the frequency ranking, or None
    for an empty table.

    Nearest-rank: the key of row ceil(p * N) (1-based) of the ascending
    frequency order.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"percentile {p} outside [0, 1]")
    rows = table.sorted_rows()
    if not rows:
        return None
    return rows[max(1, math.ceil(p * len(rows))) - 1][0]
