"""Cutoff split: initial snapshot plus typed update stream.

The cutoff instant divides the simulation window: everything created
before it forms the bulk-load snapshot, everything created at or after it
becomes an insert operation, and deletions at or after it become delete
operations.  Entities already deleted before the cutoff are retired: they
appear in neither output (their whole life happened before the benchmark
starts).

Delete operations are emitted only for cascade roots.  An entity whose
removal was caused by something it depends on (its creator, forum, parent
message, or an edge endpoint) dying at the same instant is covered by that
ancestor's delete, and the replaying store recreates the cascade.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from ..model import (
    COLLECTIONS,
    DEL_COMMENT,
    DEL_FORUM,
    DEL_KNOWS,
    DEL_LIKE_COMMENT,
    DEL_LIKE_POST,
    DEL_MEMBER,
    DEL_PERSON,
    DEL_POST,
    INS_COMMENT,
    INS_FORUM,
    INS_KNOWS,
    INS_LIKE_COMMENT,
    INS_LIKE_POST,
    INS_MEMBER,
    INS_PERSON,
    INS_POST,
    Lifecycle,
    TemporalGraph,
    UpdateOperation,
    cascade_parents,
    delete_op,
    insert_op,
    references,
)
from ..simtime import day_start
from .config import GenConfig

_TYPE_RANK = {
    INS_PERSON: 0, INS_LIKE_POST: 1, INS_LIKE_COMMENT: 2, INS_FORUM: 3,
    INS_MEMBER: 4, INS_POST: 5, INS_COMMENT: 6, INS_KNOWS: 7,
    DEL_PERSON: 8, DEL_LIKE_POST: 9, DEL_LIKE_COMMENT: 10, DEL_FORUM: 11,
    DEL_MEMBER: 12, DEL_POST: 13, DEL_COMMENT: 14, DEL_KNOWS: 15,
}

EntityKey = tuple[str, object]


@dataclass
class SnapshotAndStream:
    cutoff: int
    snapshot: TemporalGraph  # alive at the cutoff, with open-ended lifecycles
    stream: list[UpdateOperation]
    retired: int  # entities whose whole lifecycle ended before the cutoff

    def partition_counts(self) -> dict[str, int]:
        inserts = sum(1 for op in self.stream if op.is_insert)
        deletes = len(self.stream) - inserts
        return {
            "snapshot": self.snapshot.entity_count(),
            "inserts": inserts,
            "deletes": deletes,
            "retired": self.retired,
        }


def cutoff_instant(config: GenConfig) -> int:
    """The cutoff at day precision: the UTC midnight of the day reached by
    cutoff_fraction of the simulation window."""
    raw = config.simulation_start + int(
        config.cutoff_fraction * (config.simulation_end - config.simulation_start))
    return day_start(raw)


def _cascade_roots(graph: TemporalGraph, config: GenConfig) -> dict[EntityKey, EntityKey]:
    """Map every deleted entity to the root entity whose removal caused it.

    An entity is its own root when nothing it depends on died at the same
    instant.  Candidates are checked in PARENTS order, owner first.
    """
    roots: dict[EntityKey, EntityKey] = {}

    def root_of(key: EntityKey) -> EntityKey:
        cached = roots.get(key)
        if cached is not None:
            return cached
        collection, ident = key
        entity = getattr(graph, collection)[ident]
        deletion = entity.lifecycle.deletion
        assert deletion is not None
        result = key
        for parent, attr in cascade_parents(collection, config.delete_forums_of_deleted_moderator):
            ref = getattr(entity, attr)
            if ref is not None and getattr(graph, parent)[ref].lifecycle.deletion == deletion:
                result = root_of((parent, ref))
                break
        roots[key] = result
        return result

    for collection in COLLECTIONS:
        for ident, entity in getattr(graph, collection).items():
            if entity.lifecycle.deletion is not None:
                root_of((collection, ident))
    return roots


def _delete_dependencies(graph: TemporalGraph, config: GenConfig,
                         roots: dict[EntityKey, EntityKey]) -> dict[EntityKey, int]:
    """The dependency time of each root's delete operation.

    A delete waits for every insert and every earlier delete its cascade
    could reach in the full history: the latest creation among what the
    root's cascade reaches, and the latest deletion among the reached
    entities that are roots of earlier deletes.  Otherwise a gated delete
    could overtake the insert of something it kills, or an earlier delete
    of it.  Every descendant of a deleted entity is deleted, so only
    deleted entities are indexed.
    """
    lifecycles: dict[EntityKey, Lifecycle] = {}
    children: dict[EntityKey, list[EntityKey]] = {}
    for key in roots:
        collection, ident = key
        entity = getattr(graph, collection)[ident]
        lifecycles[key] = entity.lifecycle
        for parent, attr in cascade_parents(collection, config.delete_forums_of_deleted_moderator):
            ref = getattr(entity, attr)
            if ref is not None:
                children.setdefault((parent, ref), []).append(key)

    # Latest instant that a delete reaching the entity waits for.  Children
    # are created after their parents, so the newest entity goes first.
    latest: dict[EntityKey, int] = {}
    for key in sorted(roots, key=lambda k: lifecycles[k].creation, reverse=True):
        life = lifecycles[key]
        own = life.deletion if roots[key] == key else life.creation
        latest[key] = max([own] + [latest[child] for child in children.get(key, ())])
    return {key: max([lifecycles[key].creation]
                     + [latest[child] for child in children.get(key, ())])
            for key, root in roots.items() if root == key}


def split_at_cutoff(graph: TemporalGraph, config: GenConfig) -> SnapshotAndStream:
    """Partition a temporal graph into snapshot, update stream, and retired
    entities.  Ties at the cutoff instant go to the stream."""
    cutoff = cutoff_instant(config)
    snapshot = TemporalGraph()
    ops: list[UpdateOperation] = []
    retired = 0

    roots = _cascade_roots(graph, config)
    delete_dependency = _delete_dependencies(graph, config, roots)

    for collection in COLLECTIONS:
        snap_coll = getattr(snapshot, collection)
        for ident, entity in getattr(graph, collection).items():
            created = entity.lifecycle.creation
            deleted = entity.lifecycle.deletion
            if deleted is not None and deleted < cutoff:
                retired += 1
                continue
            if created < cutoff:
                snap_coll[ident] = replace(entity, lifecycle=Lifecycle(created, None))
            else:
                # An insert waits for the youngest entity it depends on.
                dep = max((getattr(graph, parent)[ref].lifecycle.creation
                           for parent, ref in references(collection, entity)),
                          default=config.simulation_start)
                ops.append(insert_op(graph, collection, ident, dep))
            dep = delete_dependency.get((collection, ident))
            if dep is not None:
                ops.append(delete_op(graph, collection, ident, dep))

    ops.sort(key=lambda op: (op.scheduled_time, _TYPE_RANK[op.op_type],
                             json.dumps(op.payload, sort_keys=True)))
    return SnapshotAndStream(cutoff=cutoff, snapshot=snapshot, stream=ops, retired=retired)
