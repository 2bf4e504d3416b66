"""Dataset serialization.

Layout written by write_dataset(out_dir):

    config.json       generator configuration echo
    temporal/         one CSV per collection, full lifecycles
    snapshot/         one CSV per collection, entities alive at the cutoff
    stream.ldjson     update operations, one JSON object per line
    dataset.json      cutoff instant, retired count and partition counts

config.json is what a dataset is read from.  A GenConfig always generates
the same world (see GenConfig), so read_dataset generates the world that
config.json names, splits it at the configuration's cutoff, and refuses
any other file whose lines, line endings aside, are not the text
write_dataset writes for that world.

_COLUMNS gives each collection's CSV columns in file order.  Snapshot
files omit the _TEMPORAL_ONLY columns: their lifecycles are open, and a
comment's rootPostId is kept in temporal/ only.

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
from ..model import COLLECTIONS, ID_SETS, TemporalGraph
from ..simtime import format_instant
from .config import GenConfig
from .generator import generate_temporal_graph
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


def _derived(graph: TemporalGraph, sas: SnapshotAndStream):
    """(file name, lines) of each file written for the world and its
    split, in the order read_dataset checks them: the history first."""
    for collection in COLLECTIONS:
        yield f"temporal/{collection}.csv", _csv_lines(graph, collection, True)
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
    for name, lines in _derived(graph, sas):
        _write_lines(directory / name, lines)
    write_json(directory / "config.json", asdict(sas.config))


def _check_lines(path: Path, expected: list[str], config: Path) -> None:
    """Raise ParseError at the first line of the file at path that is not
    the expected line, line endings aside, or that is missing or extra."""
    for line_no, (line, want) in enumerate(zip_longest(utf8_lines(path), expected), start=1):
        if want is None:
            raise ParseError(str(path), line_no, f"extra line: the world {config} "
                             f"generates ends at line {line_no - 1}")
        want = want.rstrip("\r\n")
        if line is None:
            raise ParseError(str(path), line_no,
                             f"missing line: the world {config} generates writes {want!r}")
        if line.rstrip("\r\n") != want:
            raise ParseError(str(path), line_no,
                             f"not the world {config} generates, which writes {want!r}")


def read_dataset(directory: str | Path) -> tuple[TemporalGraph, SnapshotAndStream]:
    """The world a dataset directory's config.json generates and its split
    at the configuration's cutoff.  A config.json that is not a valid
    GenConfig raises ParseError naming it; the first line of any other
    file that is not what write_dataset writes for that world raises
    ParseError naming the file, the line and config.json."""
    directory = Path(directory)
    path = directory / "config.json"
    try:
        config = load_config(GenConfig, read_json(path), "datagen")
    except ConfigInvalid as exc:
        raise ParseError(str(path), 1, str(exc)) from exc
    graph = generate_temporal_graph(config)
    sas = split_at_cutoff(graph, config)
    for name, lines in _derived(graph, sas):
        _check_lines(directory / name, lines, path)
    return graph, sas
