"""Dataset serialization.

Layout written by write_dataset(out_dir):

    config.json       generator configuration echo
    temporal/         one CSV per collection, full lifecycles
    snapshot/         one CSV per collection, entities alive at the cutoff
    stream.ldjson     update operations, one JSON object per line
    dataset.json      cutoff instant, retired count and partition counts

config.json and temporal/ are what a dataset is read from: read_dataset
audits the history and splits it at the configuration's cutoff.  The
other files are derived from that split, and read_dataset refuses one
whose lines, line endings aside, are not the text write_dataset writes
for it.

_COLUMNS gives each collection's CSV columns in file order.  Snapshot
files omit the _TEMPORAL_ONLY columns: their lifecycles are open, and a
comment's rootPostId is checked against its reply chain in temporal/.

Timestamps are ISO-8601 UTC with millisecond precision.  Id-set fields
(tagInterests, creationTagIds) are semicolon-joined integers, empty when
the set is empty.  Stream lines carry opType, scheduledTime,
dependencyTime, and payload, in ascending scheduledTime.
"""

from __future__ import annotations

import csv
from dataclasses import asdict
from itertools import zip_longest
from pathlib import Path
from types import SimpleNamespace

from ..errors import (
    ConfigInvalid,
    ParseError,
    json_text,
    load_config,
    read_json,
    record_line,
    utf8_lines,
    write_json,
)
from ..model import (
    COLLECTIONS,
    ENTITY_CLASSES,
    ID_SETS,
    Lifecycle,
    TemporalGraph,
    key_of,
    lifecycle_violations,
)
from ..simtime import format_instant, parse_instant
from .config import GenConfig
from .split import SnapshotAndStream, split_at_cutoff

# (header, attribute) of each CSV column.  "creation" and "deletion" are
# the lifecycle's.
_LIFECYCLE = (("creationDate", "creation"), ("deletionDate", "deletion"))
_COLUMNS: dict[str, tuple[tuple[str, str], ...]] = {
    "persons": (("id", "id"), ("firstName", "first_name"), ("lastName", "last_name"),
                ("countryId", "country_id"), ("universityId", "university_id"),
                ("tagInterests", "tag_interests"), *_LIFECYCLE),
    "knows": (("person1Id", "person1_id"), ("person2Id", "person2_id"), *_LIFECYCLE),
    "forums": (("id", "id"), ("moderatorPersonId", "moderator_person_id"), *_LIFECYCLE),
    "messages": (("id", "id"), ("kind", "kind"), ("creatorPersonId", "creator_person_id"),
                 ("containerForumId", "container_forum_id"),
                 ("replyToMessageId", "reply_to_message_id"), ("countryId", "country_id"),
                 ("creationTagIds", "creation_tag_ids"), ("rootPostId", "root_post_id"),
                 *_LIFECYCLE),
    "likes": (("personId", "person_id"), ("messageId", "message_id"), *_LIFECYCLE),
    "members": (("forumId", "forum_id"), ("personId", "person_id"), *_LIFECYCLE),
}
_TEMPORAL_ONLY = ("root_post_id", "deletion")
_INSTANTS = ("creation", "deletion")
_TEXT = ("first_name", "last_name", "kind")
# The cells, besides text and id sets, that may be empty: they read as None.
_NULLABLE = ("university_id", "container_forum_id", "reply_to_message_id", "deletion")


def _columns(collection: str, temporal: bool) -> list[tuple[str, str]]:
    return [(header, attr) for header, attr in _COLUMNS[collection]
            if temporal or attr not in _TEMPORAL_ONLY]


def _cell(entity, attr: str):
    if attr in _INSTANTS:
        value = getattr(entity.lifecycle, attr)
        return "" if value is None else format_instant(value)
    value = getattr(entity, attr)
    if attr in ID_SETS:
        return ";".join(str(v) for v in sorted(value))
    return "" if value is None else value


def _parse(attr: str, text: str):
    if attr in _TEXT:
        return text
    if attr in ID_SETS:
        return frozenset(int(part) for part in text.split(";")) if text else frozenset()
    if not text and attr in _NULLABLE:
        return None
    if attr in _INSTANTS:
        return parse_instant(text)
    return int(text)


def _csv_lines(graph: TemporalGraph, collection: str, temporal: bool) -> list[str]:
    """The lines of a collection's CSV file, header first, rows by key."""
    columns = _columns(collection, temporal)
    entities = getattr(graph, collection)
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append))  # one call a row
    writer.writerow([header for header, _ in columns])
    writer.writerows([_cell(entities[key], attr) for _, attr in columns]
                     for key in sorted(entities))
    return lines


def _derived(sas: SnapshotAndStream):
    """(file name, lines) of each file derived from the split, in the
    order read_dataset checks them."""
    for collection in COLLECTIONS:
        yield f"snapshot/{collection}.csv", _csv_lines(sas.snapshot, collection, False)
    yield "stream.ldjson", [record_line({"opType": op.op_type,
                                         "scheduledTime": format_instant(op.scheduled_time),
                                         "dependencyTime": format_instant(op.dependency_time),
                                         "payload": op.payload}) for op in sas.stream]
    yield "dataset.json", json_text({"cutoff": format_instant(sas.cutoff),
                                     "retired": sas.retired,
                                     "partition": sas.partition_counts()}
                                    ).splitlines(keepends=True)


def _write_lines(path: Path, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)


def write_dataset(graph: TemporalGraph, sas: SnapshotAndStream,
                  directory: str | Path) -> None:
    """Write the complete dataset directory laid out above."""
    directory = Path(directory)
    for name, lines in _derived(sas):
        _write_lines(directory / name, lines)
    for collection in COLLECTIONS:
        _write_lines(directory / "temporal" / f"{collection}.csv",
                     _csv_lines(graph, collection, True))
    write_json(directory / "config.json", asdict(sas.config))


def _csv_rows(path: Path):
    """The rows of the CSV file at path; a line the csv module cannot
    split raises ParseError with the path and line."""
    reader = csv.reader(utf8_lines(path))
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(str(path), reader.line_num, str(exc)) from exc


def _read_entities(directory: Path, delete_forums_of_deleted_moderator: bool) -> TemporalGraph:
    """Read every collection's full-history CSV.  A file that does not
    parse, a row that repeats the key of a row above it, and the first
    lifecycle_violations finding raise ParseError with the path and line,
    and with the row or file of the parent a finding names."""
    graph = TemporalGraph()
    lines: dict[str, dict] = {}  # per collection, the line of each key
    for collection in COLLECTIONS:
        path = directory / f"{collection}.csv"
        columns = _columns(collection, True)
        header = [name for name, _ in columns]
        entities = getattr(graph, collection)
        at = lines[collection] = {}
        rows = _csv_rows(path)
        found = next(rows, None)
        if found is None:
            raise ParseError(str(path), 1, "missing header")
        if found != header:
            raise ParseError(str(path), 1,
                             f"unexpected header {found!r}, wanted {header!r}")
        for line_no, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise ParseError(str(path), line_no,
                                 f"expected {len(header)} fields, got {len(row)}")
            try:
                values = {attr: _parse(attr, cell) for (_, attr), cell in zip(columns, row)}
                life = Lifecycle(values.pop("creation"), values.pop("deletion"))
                entity = ENTITY_CLASSES[collection](lifecycle=life, **values)
            except ValueError as exc:
                raise ParseError(str(path), line_no, str(exc)) from exc
            key = key_of(collection, entity)
            if key in at:
                raise ParseError(str(path), line_no, f"repeats the key of line {at[key]}")
            at[key] = line_no
            entities[key] = entity

    for collection, key, problem, parent in lifecycle_violations(
            graph, delete_forums_of_deleted_moderator):
        if parent is not None:
            parent_path = directory / f"{parent[0]}.csv"
            line_no = lines[parent[0]].get(parent[1])
            problem = (f"{problem}, line {line_no} of {parent_path}" if line_no else
                       f"{parent[0]} {parent[1]} is in no row of {parent_path}")
        raise ParseError(str(directory / f"{collection}.csv"), lines[collection][key], problem)
    return graph


def _read_history(directory: Path) -> tuple[TemporalGraph, GenConfig]:
    """The audited full history of a dataset directory and the generator
    configuration in its config.json; a config.json that is not a valid
    GenConfig raises ParseError naming it."""
    path = directory / "config.json"
    try:
        config = load_config(GenConfig, read_json(path), "datagen")
    except ConfigInvalid as exc:
        raise ParseError(str(path), 1, str(exc)) from exc
    graph = _read_entities(directory / "temporal", config.delete_forums_of_deleted_moderator)
    return graph, config


def _check_derived(path: Path, expected: list[str], source: str) -> None:
    """Raise ParseError at the first line of the file at path that is not
    the expected line, line endings aside, or that is missing or extra."""
    for line_no, (line, want) in enumerate(zip_longest(utf8_lines(path), expected), start=1):
        if want is None:
            raise ParseError(str(path), line_no,
                             f"extra line: the split of {source} ends at line {line_no - 1}")
        want = want.rstrip("\r\n")
        if line is None:
            raise ParseError(str(path), line_no,
                             f"missing line: the split of {source} writes {want!r}")
        if line.rstrip("\r\n") != want:
            raise ParseError(str(path), line_no,
                             f"not the split of {source}, which writes {want!r}")


def read_dataset(directory: str | Path) -> tuple[TemporalGraph, SnapshotAndStream]:
    """The audited full history of a dataset directory and its split at
    the configuration's cutoff.  The first line of a derived file that is
    not what write_dataset writes for that split raises ParseError naming
    the file and line, temporal/ and config.json."""
    directory = Path(directory)
    graph, config = _read_history(directory)
    sas = split_at_cutoff(graph, config)
    source = f"{directory / 'temporal'}/ under {directory / 'config.json'}"
    for name, lines in _derived(sas):
        _check_derived(directory / name, lines, source)
    return graph, sas
