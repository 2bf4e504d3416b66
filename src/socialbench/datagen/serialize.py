"""Dataset serialization.

Layout written by write_dataset(out_dir):

    config.json       generator configuration echo
    dataset.json      cutoff instant and partition counts
    snapshot/         one CSV per entity kind, entities alive at the cutoff
    temporal/         one CSV per entity kind, full lifecycles
    stream.ldjson     update operations, one JSON object per line

Canonical CSV column orders (snapshot files omit deletionDate; the
snapshot messages file also omits rootPostId, which is recomputed on load):

    persons:  id,firstName,lastName,countryId,universityId,tagInterests,creationDate[,deletionDate]
    knows:    person1Id,person2Id,creationDate[,deletionDate]
    forums:   id,moderatorPersonId,creationDate[,deletionDate]
    messages: id,kind,creatorPersonId,containerForumId,replyToMessageId,
              countryId,creationTagIds[,rootPostId],creationDate[,deletionDate]
    likes:    personId,messageId,creationDate[,deletionDate]
    members:  forumId,personId,creationDate[,deletionDate]

Timestamps are ISO-8601 UTC with millisecond precision.  Id-set fields
(tagInterests, creationTagIds) are semicolon-joined integers, empty when
the set is empty.  Stream lines carry opType, scheduledTime,
dependencyTime, and payload.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from types import SimpleNamespace

from ..errors import MalformedOperation, ParseError
from ..model import (
    Forum,
    HasMemberEdge,
    KnowsEdge,
    Lifecycle,
    LikesEdge,
    Message,
    Person,
    TemporalGraph,
    UpdateOperation,
    decode_insert,
    delete_target,
    root_post_of,
)
from ..simtime import format_instant, parse_instant
from .config import GenConfig
from .split import SnapshotAndStream


def _tags(values) -> str:
    return ";".join(str(v) for v in sorted(values))


def _parse_tags(text: str) -> frozenset[int]:
    if not text:
        return frozenset()
    return frozenset(int(part) for part in text.split(";"))


def _opt(value) -> str:
    return "" if value is None else str(value)


def _deletion(lifecycle: Lifecycle) -> str:
    return "" if lifecycle.deletion is None else format_instant(lifecycle.deletion)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_entities(directory: Path, data, temporal: bool) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    lc = lambda e: [format_instant(e.lifecycle.creation)] + ([_deletion(e.lifecycle)] if temporal else [])
    suffix = ["deletionDate"] if temporal else []

    _write_csv(directory / "persons.csv",
               ["id", "firstName", "lastName", "countryId", "universityId",
                "tagInterests", "creationDate"] + suffix,
               ([p.id, p.first_name, p.last_name, p.country_id, _opt(p.university_id),
                 _tags(p.tag_interests)] + lc(p)
                for p in (data.persons[k] for k in sorted(data.persons))))
    _write_csv(directory / "knows.csv",
               ["person1Id", "person2Id", "creationDate"] + suffix,
               ([e.person1_id, e.person2_id] + lc(e)
                for e in (data.knows[k] for k in sorted(data.knows))))
    _write_csv(directory / "forums.csv",
               ["id", "moderatorPersonId", "creationDate"] + suffix,
               ([f.id, f.moderator_person_id] + lc(f)
                for f in (data.forums[k] for k in sorted(data.forums))))
    root_col = ["rootPostId"] if temporal else []
    _write_csv(directory / "messages.csv",
               ["id", "kind", "creatorPersonId", "containerForumId", "replyToMessageId",
                "countryId", "creationTagIds"] + root_col + ["creationDate"] + suffix,
               ([m.id, m.kind, m.creator_person_id, _opt(m.container_forum_id),
                 _opt(m.reply_to_message_id), m.country_id, _tags(m.creation_tag_ids)]
                + ([m.root_post_id] if temporal else []) + lc(m)
                for m in (data.messages[k] for k in sorted(data.messages))))
    _write_csv(directory / "likes.csv",
               ["personId", "messageId", "creationDate"] + suffix,
               ([e.person_id, e.message_id] + lc(e)
                for e in (data.likes[k] for k in sorted(data.likes))))
    _write_csv(directory / "members.csv",
               ["forumId", "personId", "creationDate"] + suffix,
               ([e.forum_id, e.person_id] + lc(e)
                for e in (data.members[k] for k in sorted(data.members))))


class _Reader:
    """CSV reader that reports failures with file and line number."""

    def __init__(self, path: Path, expected_header: list[str]):
        self.path = path
        self.expected_header = expected_header

    def parse(self, builder):
        out = {}
        with self.path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(str(self.path), 1, "missing header")
            if header != self.expected_header:
                raise ParseError(str(self.path), 1,
                                 f"unexpected header {header!r}, wanted {self.expected_header!r}")
            for line_no, row in enumerate(reader, start=2):
                if len(row) != len(self.expected_header):
                    raise ParseError(str(self.path), line_no,
                                     f"expected {len(self.expected_header)} fields, got {len(row)}")
                try:
                    key, value = builder(row)
                except (ValueError, KeyError) as exc:
                    raise ParseError(str(self.path), line_no, str(exc)) from exc
                out[key] = value
        return out


def _read_entities(directory: Path, temporal: bool):
    suffix = ["deletionDate"] if temporal else []

    def life(row: list[str], base: int) -> Lifecycle:
        creation = parse_instant(row[base])
        deletion = None
        if temporal and row[base + 1]:
            deletion = parse_instant(row[base + 1])
        return Lifecycle(creation, deletion)

    persons = _Reader(directory / "persons.csv",
                      ["id", "firstName", "lastName", "countryId", "universityId",
                       "tagInterests", "creationDate"] + suffix).parse(
        lambda r: (int(r[0]), Person(int(r[0]), r[1], r[2], int(r[3]),
                                     int(r[4]) if r[4] else None, _parse_tags(r[5]), life(r, 6))))
    knows = _Reader(directory / "knows.csv",
                    ["person1Id", "person2Id", "creationDate"] + suffix).parse(
        lambda r: ((int(r[0]), int(r[1])), KnowsEdge(int(r[0]), int(r[1]), life(r, 2))))
    forums = _Reader(directory / "forums.csv",
                     ["id", "moderatorPersonId", "creationDate"] + suffix).parse(
        lambda r: (int(r[0]), Forum(int(r[0]), int(r[1]), life(r, 2))))

    root_col = ["rootPostId"] if temporal else []
    msg_header = ["id", "kind", "creatorPersonId", "containerForumId", "replyToMessageId",
                  "countryId", "creationTagIds"] + root_col + ["creationDate"] + suffix

    raw_messages: dict[int, list[str]] = _Reader(directory / "messages.csv", msg_header).parse(
        lambda r: (int(r[0]), r))
    messages: dict[int, Message] = {}
    if temporal:
        for mid in raw_messages:
            r = raw_messages[mid]
            messages[mid] = Message(
                int(r[0]), r[1], int(r[2]), int(r[3]) if r[3] else None,
                int(r[4]) if r[4] else None, int(r[5]), _parse_tags(r[6]),
                life(r, 8), root_post_id=int(r[7]))
    else:
        # Two passes: materialize reply links first, then resolve thread roots.
        probes = {
            mid: SimpleNamespace(id=mid, kind=r[1],
                                 reply_to_message_id=int(r[4]) if r[4] else None)
            for mid, r in raw_messages.items()
        }
        for mid in raw_messages:
            r = raw_messages[mid]
            messages[mid] = Message(
                int(r[0]), r[1], int(r[2]), int(r[3]) if r[3] else None,
                int(r[4]) if r[4] else None, int(r[5]), _parse_tags(r[6]),
                life(r, 7), root_post_id=root_post_of(mid, probes))

    likes = _Reader(directory / "likes.csv",
                    ["personId", "messageId", "creationDate"] + suffix).parse(
        lambda r: ((int(r[0]), int(r[1])), LikesEdge(int(r[0]), int(r[1]), life(r, 2))))
    members = _Reader(directory / "members.csv",
                      ["forumId", "personId", "creationDate"] + suffix).parse(
        lambda r: ((int(r[0]), int(r[1])), HasMemberEdge(int(r[0]), int(r[1]), life(r, 2))))
    return persons, knows, forums, messages, likes, members


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
    persons, knows, forums, messages, likes, members = _read_entities(
        directory / "snapshot", temporal=False)
    snapshot = TemporalGraph(persons=persons, knows=knows, forums=forums,
                             messages=messages, likes=likes, members=members)
    return SnapshotAndStream(
        cutoff=parse_instant(meta["cutoff"]),
        snapshot=snapshot,
        stream=read_stream(directory / "stream.ldjson"),
        retired=int(meta["retired"]))


def write_temporal_graph(graph: TemporalGraph, directory: str | Path) -> None:
    _write_entities(Path(directory), graph, temporal=True)


def read_temporal_graph(directory: str | Path) -> TemporalGraph:
    persons, knows, forums, messages, likes, members = _read_entities(
        Path(directory), temporal=True)
    return TemporalGraph(persons=persons, knows=knows, forums=forums,
                         messages=messages, likes=likes, members=members)


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
