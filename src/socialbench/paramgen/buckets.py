"""Per-day parameter buckets for the complex and short read queries.

Every stream day from the cutoff onward gets one bucket.  Each bucket
holds ready-to-run parameter dicts per query variant, chosen so that
every referenced entity is alive through the whole day; path queries
additionally get pairs whose reachability cannot change within the day.
Days where the graph cannot supply enough qualifying pairs produce
partial buckets carrying warnings instead of failing the whole run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ConfigInvalid, NoQualifyingGroup, ParseError, check_config_types
from ..model import TemporalGraph
from ..simtime import MS_PER_DAY, SIM_END, day_date, day_starts_between, parse_day
from ..rng import derive_rng
from .factors import FactorTable, build_factor_tables
from .pathcuration import build_bound_graphs, curate_reachable_pairs, curate_unreachable_pairs
from .selection import select_percentile, select_window

QUERY_VARIANTS = ("CR3a", "CR3b", "CR13a", "CR13b", "CR14a", "CR14b", "SR2", "SR6")


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
    partial: bool = False
    warnings: list[str] = field(default_factory=list)

    def draw(self, variant: str, index: int) -> dict | None:
        """The index-th parameter set for variant, cycling; None if absent."""
        entries = self.params.get(variant)
        if not entries:
            return None
        return entries[index % len(entries)]


def _alive_all_day(entity, day_start: int) -> bool:
    return entity.lifecycle.alive_throughout(day_start, day_start + MS_PER_DAY)


def _person_pool(window_keys: list[tuple], graph: TemporalGraph,
                 day_start: int) -> list[int]:
    pool = [key[0] for key in window_keys
            if _alive_all_day(graph.persons[key[0]], day_start)]
    if pool:
        return pool
    return [pid for pid, person in sorted(graph.persons.items())
            if _alive_all_day(person, day_start)]


def _window_or_all(table: FactorTable, min_group_size: int) -> list[tuple]:
    # Graphs too small for any flat band fall back to every active row.
    try:
        return select_window(table, min_group_size)
    except NoQualifyingGroup:
        return [key for key, _ in table.sorted_rows()]


def _start_date(day_table: FactorTable, day_start: int, duration_ms: int,
                min_group_size: int, rng: random.Random) -> int:
    eligible = {key: freq for key, freq in day_table.rows.items()
                if key[0] + duration_ms <= day_start}
    if eligible:
        sub = FactorTable(name=day_table.name, rows=eligible)
        try:
            window = select_window(sub, min_group_size)
            return rng.choice(window)[0]
        except NoQualifyingGroup:
            pass
    return day_start - duration_ms


def generate_parameters(graph: TemporalGraph, cutoff: int,
                        options: ParamGenOptions | None = None,
                        simulation_end: int = SIM_END) -> dict[int, ParameterBucket]:
    """One ParameterBucket per day from the cutoff day to the end of time."""
    options = options or ParamGenOptions()
    options.validate()
    tables = build_factor_tables(graph)
    n = options.per_day

    pair_a = select_percentile(tables["countryPairsNumFriends"], 1.00)
    pair_b = select_percentile(tables["countryPairsNumFriends"], 0.01)
    friend_window = _window_or_all(tables["personNumFriends"], options.min_group_size)
    message_window = _window_or_all(tables["personNumMessages"], options.min_group_size)
    duration_ms = options.cr3_duration_days * MS_PER_DAY

    buckets: dict[int, ParameterBucket] = {}
    for index, day in enumerate(day_starts_between(cutoff, simulation_end)):
        rng = derive_rng(options.seed, index)
        bucket = ParameterBucket(day_start=day)
        bound = build_bound_graphs(graph, day)

        reachable = curate_reachable_pairs(
            bound, options.hop_count, n, seed=rng.randrange(2**32), allow_fewer=True)
        unreachable = curate_unreachable_pairs(
            bound, n, seed=rng.randrange(2**32), allow_fewer=True)

        cr3_people = _person_pool(friend_window, graph, day)
        start_date = _start_date(tables["messageCountPerDay"], day, duration_ms,
                                 options.min_group_size, rng)
        for variant, pair in (("CR3a", pair_a), ("CR3b", pair_b)):
            if cr3_people and pair:
                bucket.params[variant] = [
                    {"personId": rng.choice(cr3_people),
                     "countryXId": pair[0][0], "countryYId": pair[0][1],
                     "startDate": start_date,
                     "durationDays": options.cr3_duration_days}
                    for _ in range(n)]
            else:
                bucket.params[variant] = []

        for variant, pairs in (("CR13a", unreachable), ("CR13b", reachable),
                               ("CR14a", unreachable), ("CR14b", reachable)):
            bucket.params[variant] = [
                {"person1Id": a, "person2Id": b} for a, b in pairs]

        sr2_people = _person_pool(message_window, graph, day)
        bucket.params["SR2"] = [{"personId": rng.choice(sr2_people)}
                                for _ in range(n)] if sr2_people else []

        live_messages = [mid for mid, msg in sorted(graph.messages.items())
                         if _alive_all_day(msg, day)]
        bucket.params["SR6"] = [
            {"messageId": mid}
            for mid in rng.sample(live_messages, min(n, len(live_messages)))]

        for variant in QUERY_VARIANTS:
            got = len(bucket.params[variant])
            if got < n:
                bucket.partial = True
                bucket.warnings.append(
                    f"{day_date(day)}: {variant} has {got}/{n} parameter sets")
        buckets[day] = bucket
    return buckets


def write_buckets(buckets: dict[int, ParameterBucket], directory: str | Path) -> None:
    """One YYYY-MM-DD.ldjson file per bucket, one parameter set per line."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for day, bucket in sorted(buckets.items()):
        path = directory / f"{day_date(day)}.ldjson"
        with path.open("w", encoding="utf-8") as handle:
            for variant in QUERY_VARIANTS:
                for params in bucket.params.get(variant, []):
                    handle.write(json.dumps({"query": variant, "params": params},
                                            sort_keys=True) + "\n")


def read_buckets(directory: str | Path) -> dict[int, ParameterBucket]:
    directory = Path(directory)
    buckets: dict[int, ParameterBucket] = {}
    for path in sorted(directory.glob("*.ldjson")):
        day = parse_day(path.stem)
        bucket = ParameterBucket(day_start=day,
                                 params={variant: [] for variant in QUERY_VARIANTS})
        with path.open("r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    bucket.params[record["query"]].append(record["params"])
                except (json.JSONDecodeError, KeyError) as exc:
                    raise ParseError(str(path), line_no, str(exc)) from exc
        bucket.partial = any(not rows for rows in bucket.params.values())
        buckets[day] = bucket
    return buckets
