"""Per-day parameter buckets for the complex and short read queries.

Every stream day from the cutoff onward gets one bucket.  Each bucket
holds ready-to-run parameter dicts per query variant, chosen so that
every referenced entity is alive through the whole day; path queries
additionally get pairs whose reachability cannot change within the day.
Days where the graph cannot supply enough qualifying pairs produce
partial buckets carrying warnings instead of failing the whole run.
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import (ConfigInvalid, NoQualifyingGroup, ParseError, SocialBenchError,
                      check_config_types, read_records, write_records)
from ..model import Lifecycle, TemporalGraph
from ..simtime import MS_PER_DAY, SIM_END, day_date, day_start, day_starts_between, parse_day
from ..rng import derive_rng
from .factors import FactorTable, build_factor_tables
from .pathcuration import curate_reachable_pairs, curate_unreachable_pairs, sweep_bound_graphs
from .selection import GroupedRows, select_percentile, select_window
from .sweep import DayEvents, SweptPool, day_span

logger = logging.getLogger(__name__)

# A parameter file's name: the day its bucket is for.
_DAY_FILE = "[0-9][0-9][0-9][0-9]-[0-9][0-9]-[0-9][0-9].ldjson"
QUERY_VARIANTS = ("CR3a", "CR3b", "CR13a", "CR13b", "CR14a", "CR14b", "SR2", "SR6")

_CR3_KEYS = {"personId", "countryXId", "countryYId", "startDate", "durationDays"}
_PAIR_KEYS = {"person1Id", "person2Id"}
# The parameters each variant takes; every value is an integer.
_PARAM_KEYS: dict[str, set[str]] = {
    "CR3a": _CR3_KEYS, "CR3b": _CR3_KEYS, "CR13a": _PAIR_KEYS, "CR13b": _PAIR_KEYS,
    "CR14a": _PAIR_KEYS, "CR14b": _PAIR_KEYS, "SR2": {"personId"}, "SR6": {"messageId"}}


@dataclass(frozen=True)
class ParamGenOptions:
    seed: int = 0
    per_day: int = 10
    hop_count: int = 4
    min_group_size: int = 10
    cr3_duration_days: int = 28

    def validate(self) -> None:
        check_config_types(self)
        for name in ("per_day", "hop_count", "min_group_size", "cr3_duration_days"):
            if getattr(self, name) < 1:
                raise ConfigInvalid(name, "must be at least 1")


@dataclass
class ParameterBucket:
    day_start: int
    params: dict[str, list[dict]] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    @property
    def partial(self) -> bool:
        """A bucket is partial when curation warned about it."""
        return bool(self.warnings)

    def draw(self, variant: str, index: int) -> dict | None:
        """The index-th parameter set for variant, cycling; None if absent."""
        entries = self.params.get(variant)
        if not entries:
            return None
        return entries[index % len(entries)]


def _window_or_all(table: FactorTable, min_group_size: int) -> list[tuple]:
    # Graphs too small for any flat band fall back to every active row.
    try:
        return select_window(table, min_group_size)
    except NoQualifyingGroup:
        return [key for key, _ in table.sorted_rows()]


def _start_date(start_rows: GroupedRows, day_start: int, duration_ms: int,
                rng: random.Random) -> int:
    # start_rows: the messageCountPerDay rows of the days whose CR3 window
    # closes by day_start; it grows by a row a day.
    try:
        return rng.choice(start_rows.window())[0]
    except NoQualifyingGroup:
        return day_start - duration_ms


def generate_parameters(graph: TemporalGraph, cutoff: int,
                        options: ParamGenOptions | None = None,
                        simulation_end: int = SIM_END) -> dict[int, ParameterBucket]:
    """One ParameterBucket per day from the cutoff day to the end of time.

    The days are swept once: the bound graphs and the pools of live
    persons and messages are updated as entities join and leave, not
    rebuilt for every day.
    """
    options = options or ParamGenOptions()
    options.validate()
    started = time.perf_counter()
    tables = build_factor_tables(graph)
    n = options.per_day

    pair_a = select_percentile(tables["countryPairsNumFriends"], 1.00)
    pair_b = select_percentile(tables["countryPairsNumFriends"], 0.01)
    friend_window = _window_or_all(tables["personNumFriends"], options.min_group_size)
    message_window = _window_or_all(tables["personNumMessages"], options.min_group_size)
    duration_ms = options.cr3_duration_days * MS_PER_DAY

    first_day = day_start(cutoff)
    days = len(day_starts_between(cutoff, simulation_end))
    persons, messages = graph.persons, graph.messages

    def pool(entries) -> SweptPool:
        return SweptPool(entries, first_day, days)

    def window_pool(window: list[tuple]) -> SweptPool:
        return pool((position, key[0], persons[key[0]].lifecycle)
                    for position, key in enumerate(window))

    # The persons and messages alive all day: the CR3 and SR2 windows in
    # window order, and every message in id order.  An empty window falls
    # back to every person alive all day: the floor graph's persons.
    cr3_pool, sr2_pool = window_pool(friend_window), window_pool(message_window)
    live_messages = pool((mid, mid, messages[mid].lifecycle) for mid in sorted(messages))
    pools = (cr3_pool, sr2_pool, live_messages)
    # A day's message count becomes a CR3 start date once a window that
    # starts on it closes by the day drawn for, and stays one.
    start_rows = GroupedRows("messageCountPerDay", options.min_group_size)
    start_joins = DayEvents(days)
    for key, freq in tables["messageCountPerDay"].sorted_rows():
        start_joins.add(day_span(Lifecycle(key[0] + duration_ms), first_day, days),
                        (key, freq))

    buckets: dict[int, ParameterBucket] = {}
    rebuilds = 0
    for index, bound in enumerate(sweep_bound_graphs(graph, first_day, days)):
        rebuilds = bound.ceiling_components.rebuilds
        day = bound.day_start
        for swept in pools:
            swept.advance(index)
        for key, freq in start_joins.joins[index]:
            start_rows.insert(key, freq)
        rng = derive_rng(options.seed, index)
        bucket = ParameterBucket(day_start=day)

        reachable = curate_reachable_pairs(bound, options.hop_count, n,
                                           seed=rng.randrange(2**32))
        unreachable = curate_unreachable_pairs(bound, n, seed=rng.randrange(2**32))
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "%s: floor %d persons and %d knows, ceiling %d persons, %d knows and "
                "%d components; %d reachable and %d unreachable pairs", day_date(day),
                len(bound.floor_adj), _edge_count(bound.floor_adj),
                len(bound.ceiling_adj), _edge_count(bound.ceiling_adj),
                bound.ceiling_components.count, len(reachable), len(unreachable))

        cr3_people = cr3_pool.values or sorted(bound.floor_adj)
        start_date = _start_date(start_rows, day, duration_ms, rng)
        for variant, pair in (("CR3a", pair_a), ("CR3b", pair_b)):
            if cr3_people and pair:
                bucket.params[variant] = [
                    {"personId": rng.choice(cr3_people),
                     "countryXId": pair[0], "countryYId": pair[1],
                     "startDate": start_date,
                     "durationDays": options.cr3_duration_days}
                    for _ in range(n)]
            else:
                bucket.params[variant] = []

        for variant, pairs in (("CR13a", unreachable), ("CR13b", reachable),
                               ("CR14a", unreachable), ("CR14b", reachable)):
            bucket.params[variant] = [
                {"person1Id": a, "person2Id": b} for a, b in pairs]

        sr2_people = sr2_pool.values or sorted(bound.floor_adj)
        bucket.params["SR2"] = [{"personId": rng.choice(sr2_people)}
                                for _ in range(n)] if sr2_people else []

        live = live_messages.values
        bucket.params["SR6"] = [
            {"messageId": mid} for mid in rng.sample(live, min(n, len(live)))]

        for variant in QUERY_VARIANTS:
            got = len(bucket.params[variant])
            if got < n:
                bucket.warnings.append(
                    f"{day_date(day)}: {variant} has {got}/{n} parameter sets")
        buckets[day] = bucket
    logger.info("curated %d days, %d partial, ceiling components rebuilt on %d, "
                "in %.2f s", len(buckets), sum(bucket.partial for bucket in buckets.values()),
                rebuilds, time.perf_counter() - started)
    return buckets


def _edge_count(adj: dict[int, list[int]]) -> int:
    return sum(map(len, adj.values())) // 2


def write_buckets(buckets: dict[int, ParameterBucket], directory: str | Path) -> None:
    """One YYYY-MM-DD.ldjson file per bucket: one parameter set per line,
    then one line per warning.  The day files already there go first."""
    directory = Path(directory)
    for stale in directory.glob(_DAY_FILE):
        stale.unlink()
    for day, bucket in sorted(buckets.items()):
        write_records(directory / f"{day_date(day)}.ldjson", [
            *({"query": variant, "params": params}
              for variant in QUERY_VARIANTS for params in bucket.params.get(variant, [])),
            *({"warning": warning} for warning in bucket.warnings)])


def _bucket_entry(record) -> tuple[str | None, object]:
    """(variant, params) of a parameter set's line, (None, text) of a
    warning's; a variant's params must be exactly its integer keys, and a
    warning's line exactly {"warning": <text>}."""
    if "warning" in record:
        warning = record["warning"]
        if len(record) != 1 or not isinstance(warning, str):
            raise ValueError('a warning line must be exactly {"warning": <text>}')
        return None, warning
    variant, params = record["query"], record["params"]
    keys = _PARAM_KEYS[variant]
    if not isinstance(params, dict) or params.keys() != keys:
        raise ValueError(f"{variant} params must be an object with keys {sorted(keys)}")
    for key, value in params.items():
        if type(value) is not int:
            raise ValueError(f"{variant} param {key!r} must be an integer")
    return variant, params


def read_buckets(directory: str | Path) -> dict[int, ParameterBucket]:
    """Load what write_buckets wrote.  A *.ldjson file not named after a
    day, or a line that is neither exactly a warning's text nor a known
    variant with exactly its integer parameters, is a ParseError; a directory that holds no
    parameter file is a SocialBenchError."""
    directory = Path(directory)
    paths = sorted(directory.glob("*.ldjson"))
    if not paths:
        reason = "holds no *.ldjson file" if directory.is_dir() else "is not a directory"
        raise SocialBenchError(f"parameter directory {directory} {reason}")
    buckets: dict[int, ParameterBucket] = {}
    for path in paths:
        try:
            if not path.match(_DAY_FILE):
                raise ValueError
            day = parse_day(path.stem)
        except ValueError as exc:
            raise ParseError(str(path), 1, "file name is not a YYYY-MM-DD day") from exc
        bucket = ParameterBucket(day_start=day,
                                 params={variant: [] for variant in QUERY_VARIANTS})
        for variant, value in read_records(path, _bucket_entry):
            if variant is None:
                bucket.warnings.append(value)
            else:
                bucket.params[variant].append(value)
        buckets[day] = bucket
    return buckets
