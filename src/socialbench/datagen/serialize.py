"""Dataset serialization.

Layout written by write_dataset(out_dir):

    config.json       generator configuration echo
    dataset.json      cutoff instant, retired count and partition counts
    snapshot/         one CSV per collection, entities alive at the cutoff
    temporal/         one CSV per collection, full lifecycles
    stream.ldjson     update operations, one JSON object per line

_COLUMNS gives each collection's CSV columns in file order.  Snapshot
files omit the _TEMPORAL_ONLY columns: their lifecycles are open, and a
snapshot comment's rootPostId is recomputed on load, and a temporal
comment's is checked against its reply chain.

Timestamps are ISO-8601 UTC with millisecond precision.  Id-set fields
(tagInterests, creationTagIds) are semicolon-joined integers, empty when
the set is empty.  Stream lines carry opType, scheduledTime,
dependencyTime, and payload, in ascending scheduledTime.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, replace
from pathlib import Path

from ..errors import (
    ConfigInvalid,
    CycleDetected,
    IntegrityError,
    ParseError,
    load_config,
    read_json,
    read_records,
    utf8_lines,
    write_json,
    write_records,
)
from ..model import (
    COLLECTIONS,
    COMMENT,
    ENTITY_CLASSES,
    ID_SETS,
    Lifecycle,
    TemporalGraph,
    UpdateOperation,
    check_references,
    decode_insert,
    delete_target,
    key_of,
    lifecycle_violations,
    root_post_of,
)
from ..simtime import format_instant, parse_instant
from .config import GenConfig
from .split import SnapshotAndStream

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


def _write_entities(directory: Path, graph: TemporalGraph, temporal: bool) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for collection in COLLECTIONS:
        columns = _columns(collection, temporal)
        entities = getattr(graph, collection)
        with (directory / f"{collection}.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([header for header, _ in columns])
            writer.writerows([_cell(entities[key], attr) for _, attr in columns]
                             for key in sorted(entities))


def _csv_rows(path: Path):
    """The rows of the CSV file at path; a line the csv module cannot
    split raises ParseError with the path and line."""
    reader = csv.reader(utf8_lines(path))
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(str(path), reader.line_num, str(exc)) from exc


def _read_entities(directory: Path, temporal: bool,
                   delete_forums_of_deleted_moderator: bool) -> TemporalGraph:
    """Read every collection's CSV.  A file that does not parse, a row that
    repeats the key of a row above it, a snapshot comment whose reply chain
    does not reach a post, a snapshot reference that check_references
    refuses, and the first lifecycle_violations finding in the full
    history raise ParseError with the path and line, and with the row or
    file of the parent a refusal names."""
    graph = TemporalGraph()
    lines: dict[str, dict] = {}  # per collection, the line of each key
    for collection in COLLECTIONS:
        path = directory / f"{collection}.csv"
        columns = _columns(collection, temporal)
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
                life = Lifecycle(values.pop("creation"), values.pop("deletion", None))
                if collection == "messages" and not temporal:
                    # A comment's root is found once every message is read.
                    values["root_post_id"] = (None if values["kind"] == COMMENT
                                              else values["id"])
                entity = ENTITY_CLASSES[collection](lifecycle=life, **values)
            except ValueError as exc:
                raise ParseError(str(path), line_no, str(exc)) from exc
            key = key_of(collection, entity)
            if key in at:
                raise ParseError(str(path), line_no, f"repeats the key of line {at[key]}")
            at[key] = line_no
            entities[key] = entity

    def refused(collection, key, problem, parent) -> ParseError:
        if parent is not None:
            parent_path = directory / f"{parent[0]}.csv"
            line_no = lines[parent[0]].get(parent[1])
            problem = (f"{problem}, line {line_no} of {parent_path}" if line_no else
                       f"{parent[0]} {parent[1]} is in no row of {parent_path}")
        return ParseError(str(directory / f"{collection}.csv"), lines[collection][key], problem)

    if temporal:
        for finding in lifecycle_violations(graph, delete_forums_of_deleted_moderator):
            raise refused(*finding)
        return graph
    messages = graph.messages
    for mid, line_no in lines["messages"].items():
        if messages[mid].kind != COMMENT:
            continue
        try:
            root = root_post_of(mid, messages)
        except (CycleDetected, KeyError) as exc:
            raise ParseError(str(directory / "messages.csv"), line_no,
                             f"reply chain does not reach a post: {exc}") from exc
        messages[mid] = replace(messages[mid], root_post_id=root)
    try:
        check_references(graph, delete_forums_of_deleted_moderator)
    except IntegrityError as exc:
        collection, key, parent, ref = exc.reference
        raise refused(collection, key, f"missing {parent} {ref}", (parent, ref)) from exc
    return graph


def write_stream(stream: list[UpdateOperation], path: Path) -> None:
    write_records(path, ({"opType": op.op_type,
                          "scheduledTime": format_instant(op.scheduled_time),
                          "dependencyTime": format_instant(op.dependency_time),
                          "payload": op.payload} for op in stream))


def read_stream(path: Path) -> list[UpdateOperation]:
    """The operations in the file at path.  A line the stores could not
    decode, scheduled before the line above it, or that UpdateOperation
    refuses, is a ParseError."""
    previous = float("-inf")

    def parse(record) -> UpdateOperation:
        nonlocal previous
        op = UpdateOperation(op_type=record["opType"], payload=record["payload"],
                             scheduled_time=parse_instant(record["scheduledTime"]),
                             dependency_time=parse_instant(record["dependencyTime"]))
        # Reject here a payload the stores could not decode.
        if op.is_insert:
            decode_insert(op)
        else:
            delete_target(op)
        # The driver's clock releases on the next pending operation's
        # instant, which is sound only while the instants ascend.
        if op.scheduled_time < previous:
            raise ValueError(f"scheduled before the line above's {format_instant(previous)}")
        previous = op.scheduled_time
        return op

    return read_records(path, parse)


def deserialize(directory: str | Path) -> SnapshotAndStream:
    """The split a dataset directory holds, with the generator
    configuration it was written with; a config.json that is not a valid
    GenConfig raises ParseError naming it."""
    directory = Path(directory)
    path = directory / "config.json"
    try:
        config = load_config(GenConfig, read_json(path), "datagen")
    except ConfigInvalid as exc:
        raise ParseError(str(path), 1, str(exc)) from exc
    path = directory / "dataset.json"
    meta = read_json(path)
    try:
        cutoff, retired = parse_instant(meta["cutoff"]), int(meta["retired"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ParseError(str(path), 1, "want an object with a cutoff instant and a "
                         f"retired count: {exc!r}") from exc
    return SnapshotAndStream(
        cutoff=cutoff,
        snapshot=_read_entities(directory / "snapshot", False,
                                config.delete_forums_of_deleted_moderator),
        stream=read_stream(directory / "stream.ldjson"),
        retired=retired,
        config=config)


def write_dataset(graph: TemporalGraph, sas: SnapshotAndStream,
                  directory: str | Path) -> None:
    """Write the complete dataset directory laid out above."""
    directory = Path(directory)
    _write_entities(directory / "snapshot", sas.snapshot, temporal=False)
    write_stream(sas.stream, directory / "stream.ldjson")
    write_json(directory / "dataset.json",
               {"cutoff": format_instant(sas.cutoff), "retired": sas.retired,
                "partition": sas.partition_counts()})
    _write_entities(directory / "temporal", graph, temporal=True)
    write_json(directory / "config.json", asdict(sas.config))


def read_dataset(directory: str | Path) -> tuple[TemporalGraph, SnapshotAndStream]:
    """The full history and the split of a dataset directory."""
    directory = Path(directory)
    sas = deserialize(directory)
    graph = _read_entities(directory / "temporal", True,
                           sas.config.delete_forums_of_deleted_moderator)
    return graph, sas
