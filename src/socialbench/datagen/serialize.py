"""Dataset serialization.

Layout written by write_dataset(out_dir):

    config.json       generator configuration echo
    dataset.json      cutoff instant and partition counts
    snapshot/         one CSV per collection, entities alive at the cutoff
    temporal/         one CSV per collection, full lifecycles
    stream.ldjson     update operations, one JSON object per line

_COLUMNS gives each collection's CSV columns in file order.  Snapshot
files omit the _TEMPORAL_ONLY columns: their lifecycles are open, and a
snapshot message's rootPostId is recomputed on load.

Timestamps are ISO-8601 UTC with millisecond precision.  Id-set fields
(tagInterests, creationTagIds) are semicolon-joined integers, empty when
the set is empty.  Stream lines carry opType, scheduledTime,
dependencyTime, and payload.
"""

from __future__ import annotations

import csv
import json
from dataclasses import replace
from pathlib import Path

from ..errors import CycleDetected, MalformedOperation, ParseError
from ..model import (
    COLLECTIONS,
    COMMENT,
    ENTITY_CLASSES,
    ID_SETS,
    Lifecycle,
    TemporalGraph,
    UpdateOperation,
    decode_insert,
    delete_target,
    key_of,
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


def _read_entities(directory: Path, temporal: bool) -> TemporalGraph:
    """Read every collection's CSV; a file that does not parse raises
    ParseError with its path and line."""
    graph = TemporalGraph()
    unrooted: dict[int, int] = {}  # line of each snapshot comment
    for collection in COLLECTIONS:
        path = directory / f"{collection}.csv"
        columns = _columns(collection, temporal)
        header = [name for name, _ in columns]
        entities = getattr(graph, collection)
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            found = next(reader, None)
            if found is None:
                raise ParseError(str(path), 1, "missing header")
            if found != header:
                raise ParseError(str(path), 1,
                                 f"unexpected header {found!r}, wanted {header!r}")
            for line_no, row in enumerate(reader, start=2):
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
                entities[key] = entity
                if collection == "messages" and entity.root_post_id is None:
                    unrooted[key] = line_no
    messages = graph.messages
    for mid, line_no in unrooted.items():
        try:
            messages[mid] = replace(messages[mid], root_post_id=root_post_of(mid, messages))
        except (CycleDetected, KeyError) as exc:
            raise ParseError(str(directory / "messages.csv"), line_no,
                             f"reply chain does not reach a post: {exc}") from exc
    return graph


def write_stream(stream: list[UpdateOperation], path: Path) -> None:
    with path.open("w") as fh:
        for op in stream:
            fh.write(json.dumps({
                "opType": op.op_type,
                "scheduledTime": format_instant(op.scheduled_time),
                "dependencyTime": format_instant(op.dependency_time),
                "payload": op.payload,
            }, sort_keys=True))
            fh.write("\n")


def read_stream(path: Path) -> list[UpdateOperation]:
    ops: list[UpdateOperation] = []
    with Path(path).open() as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                op = UpdateOperation(
                    op_type=record["opType"],
                    scheduled_time=parse_instant(record["scheduledTime"]),
                    dependency_time=parse_instant(record["dependencyTime"]),
                    payload=record["payload"],
                )
                # Reject here a payload the stores could not decode.
                if op.is_insert:
                    decode_insert(op)
                else:
                    delete_target(op)
            except (json.JSONDecodeError, KeyError, ValueError, TypeError,
                    MalformedOperation) as exc:
                raise ParseError(str(path), line_no, str(exc)) from exc
            ops.append(op)
    return ops


def serialize(sas: SnapshotAndStream, directory: str | Path) -> None:
    """Write snapshot/, stream.ldjson, and dataset.json under directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _write_entities(directory / "snapshot", sas.snapshot, temporal=False)
    write_stream(sas.stream, directory / "stream.ldjson")
    with (directory / "dataset.json").open("w") as fh:
        json.dump({"cutoff": format_instant(sas.cutoff), "retired": sas.retired,
                   "partition": sas.partition_counts()}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def deserialize(directory: str | Path) -> SnapshotAndStream:
    directory = Path(directory)
    meta_path = directory / "dataset.json"
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(str(meta_path), exc.lineno, exc.msg) from exc
    return SnapshotAndStream(
        cutoff=parse_instant(meta["cutoff"]),
        snapshot=_read_entities(directory / "snapshot", temporal=False),
        stream=read_stream(directory / "stream.ldjson"),
        retired=int(meta["retired"]))


def write_temporal_graph(graph: TemporalGraph, directory: str | Path) -> None:
    _write_entities(Path(directory), graph, temporal=True)


def read_temporal_graph(directory: str | Path) -> TemporalGraph:
    return _read_entities(Path(directory), temporal=True)


def write_dataset(graph: TemporalGraph, sas: SnapshotAndStream, config: GenConfig,
                  directory: str | Path) -> None:
    """Write the complete dataset: config echo, temporal graph, snapshot, stream."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    serialize(sas, directory)
    write_temporal_graph(graph, directory / "temporal")
    with (directory / "config.json").open("w") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_dataset(directory: str | Path) -> tuple[TemporalGraph, SnapshotAndStream, GenConfig]:
    directory = Path(directory)
    config_path = directory / "config.json"
    try:
        config = GenConfig.from_dict(json.loads(config_path.read_text()))
    except json.JSONDecodeError as exc:
        raise ParseError(str(config_path), exc.lineno, exc.msg) from exc
    graph = read_temporal_graph(directory / "temporal")
    return graph, deserialize(directory), config
