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
import logging
import time
from dataclasses import dataclass, replace
from itertools import groupby

from ..model import (
    COLLECTIONS,
    Lifecycle,
    TemporalGraph,
    UpdateOperation,
    cascade_parents,
    delete_op,
    insert_op,
    references,
)
from ..simtime import day_date, day_start
from .config import GenConfig

logger = logging.getLogger(__name__)

EntityKey = tuple[str, object]


@dataclass
class SnapshotAndStream:
    cutoff: int
    snapshot: TemporalGraph  # alive at the cutoff, with open-ended lifecycles
    stream: list[UpdateOperation]
    retired: int  # entities whose whole lifecycle ended before the cutoff
    config: GenConfig  # what the split graph was generated with

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


def _delete_dependencies(graph: TemporalGraph, config: GenConfig) -> dict[EntityKey, int]:
    """The dependency time of each cascade root's delete operation.

    A deleted entity is a root when nothing it depends on died at the same
    instant.  A delete waits for every insert and every earlier delete its
    cascade could reach in the full history: the latest creation among
    what the root's cascade reaches, and the latest deletion among the
    reached entities that are roots of earlier deletes.  Otherwise a gated
    delete could overtake the insert of something it kills, or an earlier
    delete of it.  Every descendant of a deleted entity is deleted, so only
    deleted entities are indexed.
    """
    lifecycles: dict[EntityKey, Lifecycle] = {}
    children: dict[EntityKey, list[EntityKey]] = {}
    roots: set[EntityKey] = set()
    for collection in COLLECTIONS:
        parents = cascade_parents(collection, config.delete_forums_of_deleted_moderator)
        for ident, entity in getattr(graph, collection).items():
            deletion = entity.lifecycle.deletion
            if deletion is None:
                continue
            key = (collection, ident)
            lifecycles[key] = entity.lifecycle
            roots.add(key)
            for parent, attr in parents:
                ref = getattr(entity, attr)
                if ref is not None:
                    children.setdefault((parent, ref), []).append(key)
                    if getattr(graph, parent)[ref].lifecycle.deletion == deletion:
                        roots.discard(key)

    # Latest instant that a delete reaching the entity waits for.  Children
    # are created after their parents, so the newest entity goes first.
    latest: dict[EntityKey, int] = {}
    for key in sorted(lifecycles, key=lambda k: lifecycles[k].creation, reverse=True):
        life = lifecycles[key]
        own = life.deletion if key in roots else life.creation
        latest[key] = max([own] + [latest[child] for child in children.get(key, ())])
    return {key: max([lifecycles[key].creation]
                     + [latest[child] for child in children.get(key, ())])
            for key in roots}


def _head(op: UpdateOperation) -> tuple:
    return (op.scheduled_time, not op.is_insert, op.op_type)


def _stream_order(ops: list[UpdateOperation]) -> list[UpdateOperation]:
    """ops in stream order: by instant, at one instant inserts before
    deletes, each in op-code order, and same-instant ops of one code, which
    early cutoffs make, by their payload's JSON.

    The JSON is encoded only for those ties; the order is the one a single
    sort by the whole (instant, kind, code, JSON) key gives.
    """
    ops.sort(key=_head)
    stream = []
    for _, run in groupby(ops, key=_head):
        run = list(run)
        if len(run) > 1:
            run.sort(key=lambda op: json.dumps(op.payload, sort_keys=True))
        stream += run
    return stream


def split_at_cutoff(graph: TemporalGraph, config: GenConfig) -> SnapshotAndStream:
    """Partition a temporal graph into snapshot, update stream, and retired
    entities.  Ties at the cutoff instant go to the stream."""
    started = time.perf_counter()
    cutoff = cutoff_instant(config)
    snapshot = TemporalGraph()
    ops: list[UpdateOperation] = []
    retired = 0

    delete_dependency = _delete_dependencies(graph, config)

    for collection in COLLECTIONS:
        snap_coll = getattr(snapshot, collection)
        for ident, entity in getattr(graph, collection).items():
            created = entity.lifecycle.creation
            deleted = entity.lifecycle.deletion
            if deleted is not None and deleted < cutoff:
                retired += 1
                continue
            if created < cutoff:
                # Entities are never changed once built (test_model's
                # test_no_code_assigns_an_entity_field guards that), so one
                # never deleted is shared as it is.
                snap_coll[ident] = entity if deleted is None else replace(
                    entity, lifecycle=Lifecycle(created, None))
            else:
                # An insert waits for the youngest entity it depends on.
                dep = max((getattr(graph, parent)[ref].lifecycle.creation
                           for parent, ref in references(collection, entity)),
                          default=config.simulation_start)
                ops.append(insert_op(graph, collection, ident, dep))
            dep = delete_dependency.get((collection, ident))
            if dep is not None:
                ops.append(delete_op(graph, collection, ident, dep))

    sas = SnapshotAndStream(cutoff=cutoff, snapshot=snapshot, stream=_stream_order(ops),
                            retired=retired, config=config)
    if logger.isEnabledFor(logging.INFO):
        counts = sas.partition_counts()
        logger.info("split at %s: %d snapshot, %d inserts, %d deletes, %d retired, in %.2f s",
                    day_date(cutoff), counts["snapshot"], counts["inserts"], counts["deletes"],
                    counts["retired"], time.perf_counter() - started)
    return sas
