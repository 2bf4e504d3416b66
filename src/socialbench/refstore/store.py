"""Versioned in-memory graph store with snapshot-isolated reads.

Every entity and edge is held in a record carrying the version interval
during which it is visible.  Writers serialize on a single commit lock,
stage their records, and publish them by bumping the store version as
the very last step; readers pin the version once and evaluate the whole
query against that instant, so concurrent commits never leak into a
running traversal.  Nothing is ever physically removed: deletion writes
a closing version into the record, which keeps every adjacency list
append-only and therefore safe to iterate while writers run.

Delete operations remove the full dependent closure of their target
(reply trees, likes, memberships, and so on) in one commit, so no
reader version ever observes a comment without its ancestors or an
edge without its endpoints.
"""

from __future__ import annotations

import heapq
import math
import threading
from bisect import bisect_right
from dataclasses import dataclass

from ..errors import DependencyMissing, IntegrityError, UnknownEntity
from ..model import (
    COLLECTIONS,
    COMMENT,
    OP_TARGET,
    PARENTS,
    Forum,
    Message,
    Person,
    UpdateOperation,
    cascade_parents,
    check_references,
    decode_insert,
    delete_target,
    key_of,
)

SR2_LIMIT = 10


def edge_weight(interactions: int) -> int:
    """Path cost of a friendship with the given interaction count.

    40 minus the square root, rounded half away from zero, floored at 1
    so heavily interacting pairs stay cheap but never free.
    """
    x = 40.0 - math.sqrt(interactions)
    rounded = math.floor(x + 0.5) if x >= 0 else -math.floor(-x + 0.5)
    return max(rounded, 1)


@dataclass(slots=True)
class _Rec:
    """One entity or edge with its visibility interval [created_v, deleted_v)."""

    value: object
    created_v: int
    deleted_v: int | None = None

    def visible_at(self, version: int) -> bool:
        if self.created_v > version:
            return False
        deleted = self.deleted_v
        return deleted is None or deleted > version


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


class Snapshot:
    """Read view pinned to one store version."""

    def __init__(self, store: "ReferenceStore", version: int):
        self.store = store
        self._pinned = version

    @property
    def version(self) -> int:
        return self._pinned

    def _live(self, collection: str, key) -> object | None:
        rec = self.store._tables[collection].get(key)
        if rec is not None and rec.visible_at(self.version):
            return rec.value
        return None

    def person(self, person_id: int) -> Person | None:
        return self._live("persons", person_id)

    def forum(self, forum_id: int) -> Forum | None:
        return self._live("forums", forum_id)

    def message(self, message_id: int) -> Message | None:
        return self._live("messages", message_id)

    def friend_ids(self, person_id: int) -> list[int]:
        version = self.version
        out = []
        for rec in self.store._knows_by_person.get(person_id, []):
            if rec.visible_at(version):
                edge = rec.value
                out.append(edge.person2_id if edge.person1_id == person_id
                           else edge.person1_id)
        return out

    def messages_of(self, person_id: int) -> list[Message]:
        version = self.version
        return [rec.value for rec in self.store._messages_by_creator.get(person_id, [])
                if rec.visible_at(version)]

    def interaction_count(self, person_a: int, person_b: int) -> int:
        history = self.store._interactions.get(_pair(person_a, person_b))
        if not history:
            return 0
        idx = bisect_right(history, (self.version, float("inf")))
        return history[idx - 1][1] if idx else 0


class ReferenceStore:
    """The system under test: snapshot reads, serialized atomic writes."""

    def __init__(self, delete_forums_of_deleted_moderator: bool = True):
        self.delete_forums_of_deleted_moderator = delete_forums_of_deleted_moderator
        self._lock = threading.Lock()
        self._version = 0
        self._tables: dict[str, dict[object, _Rec]] = {c: {} for c in COLLECTIONS}
        # Append-only adjacency, one index per (child, parent collection)
        # pair of PARENTS: parent key -> the child records that reference
        # it.  Records are shared with the tables above.
        self._by_parent: dict[tuple[str, str], dict[object, list[_Rec]]] = {
            (child, parent): {} for child in COLLECTIONS for parent, _attr in PARENTS[child]}
        # Per collection, (attribute, parent collection, index) of each of
        # its PARENTS.
        self._indexes: dict[str, list[tuple[str, str, dict]]] = {
            c: [(attr, parent, self._by_parent[c, parent]) for parent, attr in PARENTS[c]]
            for c in COLLECTIONS}
        # Snapshot.friend_ids and messages_of read these on every hop.
        self._knows_by_person = self._by_parent["knows", "persons"]
        self._messages_by_creator = self._by_parent["messages", "persons"]
        # Per collection, the (child collection, index) pairs whose live
        # records die with one of its entities.
        self._cascades: dict[str, list[tuple[str, dict]]] = {c: [] for c in COLLECTIONS}
        for child in COLLECTIONS:
            parents = cascade_parents(child, delete_forums_of_deleted_moderator)
            for parent in dict.fromkeys(parent for parent, _attr in parents):
                self._cascades[parent].append((child, self._by_parent[child, parent]))
        # (person, person) -> [(version, count), ...], versions ascending.
        self._interactions: dict[tuple[int, int], list[tuple[int, int]]] = {}

    @property
    def version(self) -> int:
        return self._version

    def begin_read(self) -> Snapshot:
        return Snapshot(self, self._version)

    # -- loading ---------------------------------------------------------

    def bulk_load(self, data) -> int:
        """Load an initial state (anything with the six entity mappings).

        Everything becomes visible at version 1.  Every reference is
        checked before the first record is added, so a rejected load
        leaves the store empty.  Interaction counts are derived from the
        loaded comment threads.
        """
        with self._lock:
            if self._version != 0:
                raise IntegrityError("store already loaded")
            check_references(data, self.delete_forums_of_deleted_moderator)
            for collection in COLLECTIONS:
                entities = getattr(data, collection).values()
                if collection == "messages":
                    entities = sorted(entities, key=lambda m: m.id)
                for entity in entities:
                    self._add(collection, entity, 1)
            for rec in self._tables["messages"].values():
                message = rec.value
                if message.kind == COMMENT:
                    self._bump_interactions_unlocked(message, +1, 1)
            self._version = 1
        return 1

    # -- record helpers (commit lock must be held) -------------------------

    def _add(self, collection: str, entity, version: int) -> None:
        key = key_of(collection, entity)
        table = self._tables[collection]
        if key in table:
            raise IntegrityError(f"duplicate {collection} {key}")
        rec = _Rec(entity, version)
        table[key] = rec
        for attr, _parent, index in self._indexes[collection]:
            ref = getattr(entity, attr)
            if ref is not None:
                index.setdefault(ref, []).append(rec)

    def _bump_interactions_unlocked(self, comment: Message, delta: int,
                                    version: int) -> None:
        parent = self._tables["messages"][comment.reply_to_message_id].value
        if parent.creator_person_id == comment.creator_person_id:
            return
        key = _pair(parent.creator_person_id, comment.creator_person_id)
        history = self._interactions.setdefault(key, [])
        current = history[-1][1] if history else 0
        if history and history[-1][0] == version:
            history[-1] = (version, current + delta)
        else:
            history.append((version, current + delta))

    def _root_of(self, message_id: int) -> int:
        return self._require("messages", message_id).value.root_post_id

    def _require(self, collection: str, key) -> _Rec:
        rec = self._tables[collection].get(key)
        if rec is None or rec.deleted_v is not None:
            raise DependencyMissing(f"{collection} {key} is absent or deleted")
        return rec

    # -- updates -----------------------------------------------------------

    def execute_update(self, op: UpdateOperation) -> dict:
        if op.is_insert:
            version = self._apply_insert(op)
            return {"version": version}
        version, nodes = self._apply_delete(op)
        return {"version": version, "cascadeNodes": nodes}

    def _apply_insert(self, op: UpdateOperation) -> int:
        with self._lock:
            collection, entity = decode_insert(op, self._root_of)
            for attr, parent, _index in self._indexes[collection]:
                ref = getattr(entity, attr)
                if ref is not None:
                    target = self._require(parent, ref).value
            # A like's last parent is the message it likes.
            if collection == "likes" and target.kind != OP_TARGET[op.op_type][1]:
                raise IntegrityError(f"like op {op.op_type} targets a {target.kind} message")
            version = self._version + 1
            self._add(collection, entity, version)
            if collection == "messages" and entity.kind == COMMENT:
                self._bump_interactions_unlocked(entity, +1, version)
            self._version = version
        return version

    def _apply_delete(self, op: UpdateOperation) -> tuple[int, int]:
        collection, key = delete_target(op)
        with self._lock:
            closure = self._closure_unlocked(collection, key)
            if not closure:
                raise UnknownEntity(f"{collection} {key} is absent or already deleted")
            target = closure[0][2].value
            if collection == "messages" and target.kind != OP_TARGET[op.op_type][1]:
                raise IntegrityError(
                    f"delete op {op.op_type} targets a {target.kind} message")
            version = self._version + 1
            nodes = self._tombstone_all(closure, version)
            self._version = version
        return version, nodes

    def _tombstone_all(self, closure: list[tuple[str, object, _Rec]],
                       version: int) -> int:
        """Close every record in the cascade at the same version."""
        nodes = 0
        for coll, _key, rec in closure:
            rec.deleted_v = version
            if coll in ("persons", "forums", "messages"):
                nodes += 1
            if coll == "messages" and rec.value.kind == COMMENT:
                self._bump_interactions_unlocked(rec.value, -1, version)
        return nodes

    def cascade_preview(self, kind: str, key) -> list[tuple[str, object]]:
        """The (collection, key) pairs a delete of this entity would remove."""
        with self._lock:
            return sorted((coll, k) for coll, k, _rec in
                          self._closure_unlocked(kind, key))

    def _closure_unlocked(self, collection: str, key) -> list[tuple[str, object, _Rec]]:
        """Live dependent closure of one entity, in depth-first pre-order:
        the target first, and every record after the one whose deletion
        reached it."""
        out: list[tuple[str, object, _Rec]] = []
        seen: set[tuple[str, object]] = set()

        def visit(collection: str, key, rec: _Rec) -> None:
            seen.add((collection, key))
            out.append((collection, key, rec))
            for child, index in self._cascades[collection]:
                for child_rec in index.get(key, ()):
                    if child_rec.deleted_v is None:
                        child_key = key_of(child, child_rec.value)
                        if (child, child_key) not in seen:
                            visit(child, child_key, child_rec)

        rec = self._tables[collection].get(key)
        if rec is not None and rec.deleted_v is None:
            visit(collection, key, rec)
        return out

    # -- queries -----------------------------------------------------------

    def execute_query(self, variant: str, params: dict,
                      snapshot: Snapshot | None = None):
        snap = snapshot or self.begin_read()
        base = variant.rstrip("ab")
        if base == "CR3":
            return self._cr3(snap, params)
        if base == "CR13":
            return self._cr13(snap, params)
        if base == "CR14":
            return self._cr14(snap, params)
        if variant == "SR2":
            return self._sr2(snap, params)
        if variant == "SR6":
            return self._sr6(snap, params)
        raise IntegrityError(f"unknown query variant {variant}")

    @staticmethod
    def _two_hop(snap: Snapshot, person_id: int) -> set[int]:
        ring1 = set(snap.friend_ids(person_id))
        ring2: set[int] = set()
        for friend in ring1:
            ring2.update(snap.friend_ids(friend))
        ring2 |= ring1
        ring2.discard(person_id)
        return ring2

    def _cr3(self, snap: Snapshot, params: dict) -> list[dict]:
        """Friends within two hops that posted from both countries in a window."""
        if snap.person(params["personId"]) is None:
            return []
        cx, cy = params["countryXId"], params["countryYId"]
        start = params["startDate"]
        end = start + params["durationDays"] * 86_400_000
        rows = []
        for pid in self._two_hop(snap, params["personId"]):
            candidate = snap.person(pid)
            if candidate is None or candidate.country_id in (cx, cy):
                continue
            x_count = y_count = 0
            for message in snap.messages_of(pid):
                if not start <= message.lifecycle.creation < end:
                    continue
                if message.country_id == cx:
                    x_count += 1
                if message.country_id == cy:
                    y_count += 1
            if x_count and y_count:
                rows.append({"personId": pid, "xCount": x_count,
                             "yCount": y_count, "totalCount": x_count + y_count})
        rows.sort(key=lambda r: (-r["totalCount"], r["personId"]))
        return rows

    def _cr13(self, snap: Snapshot, params: dict) -> dict:
        source, target = params["person1Id"], params["person2Id"]
        if snap.person(source) is None or snap.person(target) is None:
            return {"shortestPathLength": -1}
        if source == target:
            return {"shortestPathLength": 0}
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for node in frontier:
                for peer in snap.friend_ids(node):
                    if peer not in dist:
                        dist[peer] = dist[node] + 1
                        if peer == target:
                            return {"shortestPathLength": dist[peer]}
                        nxt.append(peer)
            frontier = nxt
        return {"shortestPathLength": -1}

    def _cr14(self, snap: Snapshot, params: dict) -> dict | None:
        """Cheapest path where each hop costs more the less the pair interacted."""
        source, target = params["person1Id"], params["person2Id"]
        if snap.person(source) is None or snap.person(target) is None:
            return None
        if source == target:
            return {"path": [source], "weight": 0}
        dist: dict[int, int] = {source: 0}
        parent: dict[int, int] = {}
        heap = [(0, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist.get(node, float("inf")):
                continue
            if node == target:
                path = [node]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                return {"path": path[::-1], "weight": d}
            for peer in snap.friend_ids(node):
                count = snap.interaction_count(node, peer)
                if count < 1:
                    continue
                nd = d + edge_weight(count)
                if nd < dist.get(peer, float("inf")):
                    dist[peer] = nd
                    parent[peer] = node
                    heapq.heappush(heap, (nd, peer))
        return None

    def _sr2(self, snap: Snapshot, params: dict) -> list[dict]:
        messages = snap.messages_of(params["personId"])
        messages.sort(key=lambda m: (-m.lifecycle.creation, -m.id))
        rows = []
        for message in messages[:SR2_LIMIT]:
            root = snap.message(message.root_post_id)
            rows.append({"messageId": message.id,
                         "creationDate": message.lifecycle.creation,
                         "rootPostId": message.root_post_id,
                         "rootAuthorId": root.creator_person_id})
        return rows

    def _sr6(self, snap: Snapshot, params: dict) -> dict | None:
        message = snap.message(params["messageId"])
        if message is None:
            return None
        root = snap.message(message.root_post_id)
        forum = snap.forum(root.container_forum_id)
        return {"forumId": forum.id, "moderatorPersonId": forum.moderator_person_id}

    # -- audits (single-threaded use) ---------------------------------------

    def state_at(self, version: int | None = None) -> dict[str, dict]:
        """Live values per collection at a version (default: latest)."""
        v = self._version if version is None else version
        return {collection: {key: rec.value for key, rec in table.items()
                             if rec.visible_at(v)}
                for collection, table in self._tables.items()}

    def counts(self, version: int | None = None) -> dict[str, int]:
        return {name: len(values) for name, values in self.state_at(version).items()}
