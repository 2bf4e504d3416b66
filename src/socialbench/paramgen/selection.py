"""Selection rules over factor tables.

Both selectors are deterministic: rows are ordered by (frequency, key)
before anything else happens, so equal-frequency ties never depend on
dict order.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left, insort
from operator import itemgetter

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
    grouped = GroupedRows(table.name, min_group_size)
    for key, freq in table.sorted_rows():
        grouped.insert(key, freq)
    return grouped.window()


def _apart(low: int, high: int) -> bool:
    """Whether a row of frequency high starts a new group after one of low."""
    return high - low > GAP_FRACTION * max(low, 1)


def _rank(group: list[tuple[int, tuple]]) -> tuple:
    # Exact over the integers, and so slow: a group is ranked once.
    freqs = [freq for freq, _ in group]
    return statistics.pstdev(freqs), -len(group), statistics.median(freqs), group[0][1]


class GroupedRows:
    """A factor table's rows, grouped as select_window groups them, under
    inserts.

    An inserted row never splits a group: its gaps to its neighbours are
    no wider than theirs was, and the gap allowed only grows with the
    frequency.  So a row joins the group before it, the group after it,
    both (merging them) or neither (a group of its own), and only a group
    it touched is ranked again.
    """

    __slots__ = ("name", "min_group_size", "_groups", "_ranks")

    def __init__(self, name: str, min_group_size: int):
        self.name = name
        self.min_group_size = min_group_size
        # Each group's (frequency, key) rows in sorted_rows order, and its
        # rank once one is asked for.
        self._groups: list[list[tuple[int, tuple]]] = []
        self._ranks: list[tuple | None] = []

    def insert(self, key: tuple, freq: int) -> None:
        row = (freq, key)
        groups, ranks = self._groups, self._ranks
        after = bisect_left(groups, row, key=itemgetter(0))
        before = after - 1
        if before >= 0 and row < groups[before][-1]:
            insort(groups[before], row)
            ranks[before] = None
            return
        join_before = before >= 0 and not _apart(groups[before][-1][0], freq)
        join_after = after < len(groups) and not _apart(freq, groups[after][0][0])
        if join_before and join_after:
            groups[before] += [row] + groups.pop(after)
            del ranks[after]
            ranks[before] = None
        elif join_before:
            groups[before].append(row)
            ranks[before] = None
        elif join_after:
            groups[after].insert(0, row)
            ranks[after] = None
        else:
            groups.insert(after, [row])
            ranks.insert(after, None)

    def window(self) -> list[tuple]:
        """select_window over the rows inserted so far."""
        groups, ranks = self._groups, self._ranks
        if not groups:
            raise NoQualifyingGroup(f"{self.name}: table is empty")
        best = None
        for index, group in enumerate(groups):
            if len(group) >= self.min_group_size:
                if ranks[index] is None:
                    ranks[index] = _rank(group)
                if best is None or ranks[index] < ranks[best]:
                    best = index
        if best is None:
            raise NoQualifyingGroup(
                f"{self.name}: no group of size >= {self.min_group_size} (largest was "
                f"{max(map(len, groups))})")
        return [key for _, key in groups[best]]


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
