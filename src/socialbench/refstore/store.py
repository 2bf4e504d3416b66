"""Versioned in-memory graph store with snapshot-isolated reads.

Every entity and edge is held in a record carrying the version interval
[created_v, deleted_v) during which it is visible.  A live record's
deleted_v is NEVER, an end no version reaches, so one chained comparison
is the whole rule; the hot loops test it inline.  Writers serialize on a
single commit lock, stage their records, and publish them by bumping the
store version as the very last step; readers pin the version once and
evaluate the whole query against that instant, so concurrent commits
never leak into a running traversal.  Nothing is ever physically
removed: deletion writes a closing version into the record, which keeps
every adjacency list append-only and therefore safe to iterate while
writers run.

The one exception is each creator's message timeline, which is kept in
creation order so that a window is two bisections.  A message created no
earlier than the creator's newest one is appended, record before time, so
a reader's bisection never points past the records it has.  A message
created earlier is placed by copy-on-write: the commit builds new lists
and publishes the (times, records) pair as one object, so a reader keeps
whichever pair it fetched, whole.  The inserted record is invisible to
every version pinned before the commit, so neither pair misleads it.

An insert walks its entity's parents once.  Only when every check has
passed is the record filed into its table and into the parent indexes
that walk found, so a refused insert leaves nothing behind.

Delete operations remove the full dependent closure of their target
(reply trees, likes, memberships, and so on) in one commit, so no
reader version ever observes a comment without its ancestors or an
edge without its endpoints.
"""

from __future__ import annotations

import heapq
import math
import sys
import threading
from bisect import bisect_left, bisect_right
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
# The deleted_v of a live record: an end no version reaches.
NEVER = sys.maxsize
# The method that answers each query variant; CR3, CR13 and CR14 also
# answer without their a/b suffix.
_QUERY_METHODS = {f"{base}{suffix}": f"_{base.lower()}"
                  for base in ("CR3", "CR13", "CR14") for suffix in ("", "a", "b")}
_QUERY_METHODS.update(SR2="_sr2", SR6="_sr6")


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
    deleted_v: int = NEVER

    def visible_at(self, version: int) -> bool:
        return self.created_v <= version < self.deleted_v


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


def _count_at(history: list[tuple[int, int]], version: int) -> int:
    """The interaction count a (version, count) history holds at a version."""
    idx = bisect_right(history, (version, math.inf))
    return history[idx - 1][1] if idx else 0


def _meet(snap: Snapshot, source: int, target: int) -> int:
    """Hops between two distinct persons, or -1 if they are not connected.

    A breadth-first search runs from each end over the friendships
    visible at the snapshot's version; every step expands one whole
    level of the smaller frontier, and the first vertex both searches
    have reached gives the distance.  An empty frontier means the two
    cannot be connected.
    """
    seen = ({source: 0}, {target: 0})
    frontiers = [[source], [target]]
    while frontiers[0] and frontiers[1]:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        mine, other = seen[side], seen[1 - side]
        nxt = []
        for node in frontiers[side]:
            hops = mine[node] + 1
            for peer in snap.friend_ids(node):
                if peer in other:
                    return hops + other[peer]
                if peer not in mine:
                    mine[peer] = hops
                    nxt.append(peer)
        frontiers[side] = nxt
    return -1


class _Hops(dict):
    """One CR14 query's weighted adjacency: person -> [(peer, weight), ...]
    of the hops a cheapest path may take, each read on first use."""

    def __init__(self, snap: Snapshot):
        super().__init__()
        self._snap = snap

    def __missing__(self, person_id: int) -> list[tuple[int, int]]:
        hops = self[person_id] = self._snap.weighted_friends(person_id)
        return hops


class Snapshot:
    """Read view pinned to one store version."""

    def __init__(self, store: "ReferenceStore", version: int):
        self.store = store
        self.version = version

    def _live(self, collection: str, key) -> object | None:
        rec = self.store._tables[collection].get(key)
        if rec is not None and rec.created_v <= self.version < rec.deleted_v:
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
        for rec in self.store._knows_by_person.get(person_id, ()):
            if rec.created_v <= version < rec.deleted_v:
                edge = rec.value
                out.append(edge.person2_id if edge.person1_id == person_id
                           else edge.person1_id)
        return out

    def weighted_friends(self, person_id: int) -> list[tuple[int, int]]:
        """(friend, edge_weight) of each friend with at least one
        interaction: the hops CR14 may take."""
        version = self.version
        interactions = self.store._interactions
        out = []
        for rec in self.store._knows_by_person.get(person_id, ()):
            edge = rec.value
            # Knows edges are canonical, so their endpoints key the counts.
            history = interactions.get((edge.person1_id, edge.person2_id))
            if history and rec.created_v <= version < rec.deleted_v:
                count = _count_at(history, version)
                if count >= 1:
                    out.append((edge.person2_id if edge.person1_id == person_id
                                else edge.person1_id, edge_weight(count)))
        return out

    def interaction_count(self, person_a: int, person_b: int) -> int:
        history = self.store._interactions.get(_pair(person_a, person_b))
        return _count_at(history, self.version) if history else 0


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
        # The path queries and CR3 read this on every hop.
        self._knows_by_person = self._by_parent["knows", "persons"]
        # CR3 and SR2 read creator -> (creation times, message records),
        # both in creation order.  The record lists are the ones the
        # creator index below holds, which only _add_to_timeline fills.
        self._timelines: dict[int, tuple[list[int], list[_Rec]]] = {}
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
        loaded comment threads.  Messages load in (creation, id) order,
        so each one lands at the end of its creator's timeline.
        """
        with self._lock:
            if self._version != 0:
                raise IntegrityError("store already loaded")
            check_references(data, self.delete_forums_of_deleted_moderator)
            for collection in COLLECTIONS:
                indexes = self._indexes[collection]
                entities = getattr(data, collection).values()
                if collection == "messages":
                    entities = sorted(entities, key=lambda m: (m.lifecycle.creation, m.id))
                for entity in entities:
                    self._add(collection, entity, 1, [
                        (index, ref) for attr, _parent, index in indexes
                        if (ref := getattr(entity, attr)) is not None])
            for rec in self._tables["messages"].values():
                message = rec.value
                if message.kind == COMMENT:
                    self._bump_interactions_unlocked(message, +1, 1)
            self._version = 1
        return 1

    # -- record helpers (commit lock must be held) -------------------------

    def _add(self, collection: str, entity, version: int, parents) -> None:
        """File a new record in its table and, for each (index, parent key)
        of parents, in that parent index.  A taken key is IntegrityError."""
        key = key_of(collection, entity)
        table = self._tables[collection]
        if key in table:
            raise IntegrityError(f"duplicate {collection} {key}")
        rec = table[key] = _Rec(entity, version)
        for index, ref in parents:
            if index is self._messages_by_creator:
                self._add_to_timeline(ref, rec)
            else:
                index.setdefault(ref, []).append(rec)

    def _add_to_timeline(self, creator: int, rec: _Rec) -> None:
        """File a message record in creation order (see the module note)."""
        creation = rec.value.lifecycle.creation
        timeline = self._timelines.get(creator)
        if timeline is None:
            records = [rec]
            self._timelines[creator] = ([creation], records)
        else:
            times, records = timeline
            if creation >= times[-1]:
                records.append(rec)
                times.append(creation)
                return
            at = bisect_right(times, creation)
            records = records[:at] + [rec] + records[at:]
            self._timelines[creator] = (times[:at] + [creation] + times[at:], records)
        self._messages_by_creator[creator] = records

    def _bump_interactions_unlocked(self, comment: Message, delta: int, version: int,
                                    parent: Message | None = None) -> None:
        """Move the interaction count between a comment's creator and the
        creator of parent, the message it replies to (read here if None)."""
        if parent is None:
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
        """The thread root of the live message a comment replies to."""
        rec = self._tables["messages"].get(message_id)
        if rec is None or rec.deleted_v != NEVER:
            raise DependencyMissing(f"messages {message_id} is absent or deleted")
        return rec.value.root_post_id

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
            tables, parents, target = self._tables, [], None
            for attr, parent, index in self._indexes[collection]:
                ref = getattr(entity, attr)
                if ref is None:
                    continue
                rec = tables[parent].get(ref)
                if rec is None or rec.deleted_v != NEVER:
                    raise DependencyMissing(f"{parent} {ref} is absent or deleted")
                target = rec.value
                parents.append((index, ref))
            # A like's and a comment's last parent is the message they
            # like or reply to.
            if collection == "likes" and target.kind != OP_TARGET[op.op_type][1]:
                raise IntegrityError(f"like op {op.op_type} targets a {target.kind} message")
            version = self._version + 1
            self._add(collection, entity, version, parents)
            if collection == "messages" and entity.kind == COMMENT:
                self._bump_interactions_unlocked(entity, +1, version, target)
            self._version = version
        return version

    def _delete_closure_unlocked(self, op: UpdateOperation) -> list[tuple[str, object, _Rec]]:
        """The live closure a delete removes, in depth-first pre-order: its
        target first, and every record after the one whose deletion
        reached it.  An absent or dead target is UnknownEntity; a message
        delete aimed at the other message kind is IntegrityError."""
        collection, key = delete_target(op)
        rec = self._tables[collection].get(key)
        if rec is None or rec.deleted_v != NEVER:
            raise UnknownEntity(f"{collection} {key} is absent or already deleted")
        if collection == "messages" and rec.value.kind != OP_TARGET[op.op_type][1]:
            raise IntegrityError(f"delete op {op.op_type} targets a {rec.value.kind} message")
        out: list[tuple[str, object, _Rec]] = []
        seen: set[tuple[str, object]] = set()

        def visit(collection: str, key, rec: _Rec) -> None:
            seen.add((collection, key))
            out.append((collection, key, rec))
            for child, index in self._cascades[collection]:
                for child_rec in index.get(key, ()):
                    if child_rec.deleted_v == NEVER:
                        child_key = key_of(child, child_rec.value)
                        if (child, child_key) not in seen:
                            visit(child, child_key, child_rec)

        visit(collection, key, rec)
        return out

    def _apply_delete(self, op: UpdateOperation) -> tuple[int, int]:
        with self._lock:
            closure = self._delete_closure_unlocked(op)
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

    # -- queries -----------------------------------------------------------

    def execute_query(self, variant: str, params: dict,
                      snapshot: Snapshot | None = None):
        name = _QUERY_METHODS.get(variant)
        if name is None:
            raise IntegrityError(f"unknown query variant {variant}")
        # Through self and begin_read, so that a subclass can replace either.
        return getattr(self, name)(snapshot or self.begin_read(), params)

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
        version = snap.version
        timelines = self._timelines
        rows = []
        for pid in self._two_hop(snap, params["personId"]):
            timeline = timelines.get(pid)
            if timeline is None:
                continue
            times, records = timeline
            lo = bisect_left(times, start)
            hi = bisect_left(times, end, lo)
            if lo == hi:  # most candidates: no person lookup needed
                continue
            candidate = snap.person(pid)
            if candidate is None or candidate.country_id in (cx, cy):
                continue
            x_count = y_count = 0
            for rec in records[lo:hi]:
                if rec.created_v <= version < rec.deleted_v:
                    country = rec.value.country_id
                    if country == cx:
                        x_count += 1
                    if country == cy:
                        y_count += 1
            if x_count and y_count:
                rows.append({"personId": pid, "xCount": x_count,
                             "yCount": y_count, "totalCount": x_count + y_count})
        rows.sort(key=lambda r: (-r["totalCount"], r["personId"]))
        return rows

    def _cr13(self, snap: Snapshot, params: dict) -> dict:
        """Hop count of a shortest knows path, by a search from both ends."""
        source, target = params["person1Id"], params["person2Id"]
        if snap.person(source) is None or snap.person(target) is None:
            return {"shortestPathLength": -1}
        if source == target:
            return {"shortestPathLength": 0}
        return {"shortestPathLength": _meet(snap, source, target)}

    def _cr14(self, snap: Snapshot, params: dict) -> dict | None:
        """Cheapest path where each hop costs more the less the pair interacted.

        The path is the one a Dijkstra from person1 finds that pops
        persons in (distance, id) order and relaxes only on a strictly
        smaller distance: each person's parent is, of its tight
        predecessors (those u with d(u) + w = d(v)), the one with the
        smallest (d(u), id).

        A Dijkstra from both ends finds the cost D first, and answers None
        when either side runs out of persons to reach.  The forward search
        then runs again from person1 in the same order, but never queues a
        person whose distance plus a lower bound on its distance to
        person2 exceeds D; the bound is the exact distance if the backward
        search settled the person, else the top of the backward heap.
        Such a person is on no cheapest path, so it is no tight
        predecessor of any person on one, and every parent on the path
        stays as above.
        """
        source, target = params["person1Id"], params["person2Id"]
        if snap.person(source) is None or snap.person(target) is None:
            return None
        if source == target:
            return {"path": [source], "weight": 0}
        hops = _Hops(snap)
        inf = math.inf
        dists = ({source: 0}, {target: 0})
        settled: tuple[dict[int, int], dict[int, int]] = ({}, {})
        heaps = ([(0, source)], [(0, target)])
        best = inf
        # A heap top may be a stale entry, which only makes the stop later.
        while heaps[0] and heaps[1] and heaps[0][0][0] + heaps[1][0][0] < best:
            side = 0 if len(heaps[0]) <= len(heaps[1]) else 1
            heap, mine, other, done = heaps[side], dists[side], dists[1 - side], settled[side]
            d, node = heapq.heappop(heap)
            if node in done:
                continue
            done[node] = d
            for peer, weight in hops[node]:
                nd = d + weight
                if nd < mine.get(peer, inf):
                    mine[peer] = nd
                    heapq.heappush(heap, (nd, peer))
                through = other.get(peer)
                if through is not None and nd + through < best:
                    best = nd + through
        if best == inf:
            return None

        to_target, heap = settled[1], heaps[1]
        while heap and heap[0][1] in to_target:
            heapq.heappop(heap)
        floor = heap[0][0] if heap else inf
        dist: dict[int, int] = {source: 0}
        parent: dict[int, int] = {}
        heap = [(0, source)]
        # Every person on a cheapest path passes the bound, so the target
        # is popped before the heap runs dry.
        while True:
            d, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            if node == target:
                path = [node]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                return {"path": path[::-1], "weight": d}
            for peer, weight in hops[node]:
                nd = d + weight
                if nd < dist.get(peer, inf) and nd + to_target.get(peer, floor) <= best:
                    dist[peer] = nd
                    parent[peer] = node
                    heapq.heappush(heap, (nd, peer))

    def _sr2(self, snap: Snapshot, params: dict) -> list[dict]:
        """The creator's newest visible messages, newest first, ties by
        higher id.  The timeline is walked from its end until SR2_LIMIT
        are kept and the next one is older than the last kept."""
        timeline = self._timelines.get(params["personId"])
        if timeline is None:
            return []
        version = snap.version
        messages: list[Message] = []
        for rec in reversed(timeline[1]):
            message = rec.value
            if (len(messages) >= SR2_LIMIT
                    and message.lifecycle.creation < messages[-1].lifecycle.creation):
                break
            if rec.created_v <= version < rec.deleted_v:
                messages.append(message)
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

    def counts(self) -> dict[str, int]:
        return {name: len(values) for name, values in self.state_at().items()}
