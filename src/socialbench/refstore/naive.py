"""Brute-force twin of the reference store.

Same interface, deliberately different internals: plain dicts of live
entities and no index at all.  Searches run on scans: a BFS level or a
CR3 hop is one scan of the knows edges, and the cheapest path takes the
cheapest reached, unsettled person by a linear scan, with no heap.  The
lookups a query builds (interaction counts, weighted edges, tentative
distances) are dropped when it returns: no lookup outlives the query.
Reply chains are walked instead of stored root pointers.  An unpinned
read runs on the live state while holding the store's lock, so no writer
commits during it; a snapshot pinned with ``begin_read()`` is a literal
copy of the state.  It exists so the two implementations can disagree
only when one of them is wrong.
"""

from __future__ import annotations

import math
import threading

from ..errors import DependencyMissing, IntegrityError, UnknownEntity
from ..model import (
    COLLECTIONS,
    COMMENT,
    OP_TARGET,
    POST,
    Message,
    TemporalGraph,
    UpdateOperation,
    check_references,
    decode_insert,
    delete_target,
)

SR2_LIMIT = 10


def _naive_weight(interactions: int) -> int:
    # Same contract as the reference implementation, written differently:
    # round-half-away-from-zero via the sign-split of the builtin floor.
    x = 40.0 - math.sqrt(interactions)
    sign = 1 if x >= 0 else -1
    return max(sign * math.floor(abs(x) + 0.5), 1)


class NaiveStore:
    """Index-free oracle store.

    A query scans the collections its search reaches and keeps no
    lookup after it returns.  Unpinned reads hold the lock and read the
    live state; ``begin_read()`` snapshots are copies of it.
    """

    def __init__(self, delete_forums_of_deleted_moderator: bool = True):
        self.delete_forums_of_deleted_moderator = delete_forums_of_deleted_moderator
        self._lock = threading.Lock()
        self._state = TemporalGraph()
        self._version = 0

    @property
    def version(self) -> int:
        return self._version

    def begin_read(self) -> TemporalGraph:
        with self._lock:
            return self._state.copy()

    def bulk_load(self, data) -> int:
        with self._lock:
            if self._version != 0:
                raise IntegrityError("store already loaded")
            check_references(data, self.delete_forums_of_deleted_moderator)
            for collection in COLLECTIONS:
                getattr(self._state, collection).update(getattr(data, collection))
            self._version = 1
        return 1

    # -- updates -----------------------------------------------------------

    def execute_update(self, op: UpdateOperation) -> dict:
        with self._lock:
            if op.is_insert:
                self._insert(op)
                self._version += 1
                return {"version": self._version}
            nodes = self._delete(op)
            self._version += 1
            return {"version": self._version, "cascadeNodes": nodes}

    def _insert(self, op: UpdateOperation) -> None:
        state = self._state

        def need(table, key, what):
            if key not in table:
                raise DependencyMissing(f"{what} {key}")

        def root_of(message_id):
            need(state.messages, message_id, "message")
            return state.messages[message_id].root_post_id

        collection, entity = decode_insert(op, root_of)
        if collection == "persons":
            key = entity.id
        elif collection == "likes":
            need(state.persons, entity.person_id, "person")
            need(state.messages, entity.message_id, "message")
            if state.messages[entity.message_id].kind != OP_TARGET[op.op_type][1]:
                raise IntegrityError(f"{op.op_type} targets wrong message kind")
            key = (entity.person_id, entity.message_id)
        elif collection == "forums":
            need(state.persons, entity.moderator_person_id, "person")
            key = entity.id
        elif collection == "members":
            need(state.forums, entity.forum_id, "forum")
            need(state.persons, entity.person_id, "person")
            key = (entity.forum_id, entity.person_id)
        elif collection == "messages":
            need(state.persons, entity.creator_person_id, "person")
            if entity.kind == POST:
                need(state.forums, entity.container_forum_id, "forum")
            else:
                need(state.messages, entity.reply_to_message_id, "message")
            key = entity.id
        else:  # knows
            need(state.persons, entity.person1_id, "person")
            need(state.persons, entity.person2_id, "person")
            key = entity.pair
        table = getattr(state, collection)
        if key in table:
            raise IntegrityError(f"duplicate {collection} {key}")
        table[key] = entity

    def _delete(self, op: UpdateOperation) -> int:
        """Delete the op's live target and everything depending on it;
        returns the number of nodes removed."""
        collection, key = delete_target(op)
        target = getattr(self._state, collection).get(key)
        if target is None:
            raise UnknownEntity(f"{collection} {key}")
        if collection == "messages" and target.kind != OP_TARGET[op.op_type][1]:
            raise IntegrityError(f"{op.op_type} targets wrong message kind")
        if collection == "persons":
            return self._delete_person(key)
        if collection == "forums":
            return self._delete_forum(key)
        if collection == "messages":
            return self._delete_message(key)
        del getattr(self._state, collection)[key]
        return 0

    def _delete_person(self, pid: int) -> int:
        state = self._state
        nodes = 1
        del state.persons[pid]
        for key in [k for k in state.knows if pid in k]:
            del state.knows[key]
        for key in [k for k in state.likes if k[0] == pid]:
            del state.likes[key]
        for key in [k for k in state.members if k[1] == pid]:
            del state.members[key]
        for mid in [m.id for m in state.messages.values()
                    if m.creator_person_id == pid]:
            if mid in state.messages:
                nodes += self._delete_message(mid)
        if self.delete_forums_of_deleted_moderator:
            for fid in [f.id for f in state.forums.values()
                        if f.moderator_person_id == pid]:
                if fid in state.forums:
                    nodes += self._delete_forum(fid)
        return nodes

    def _delete_forum(self, fid: int) -> int:
        state = self._state
        nodes = 1
        del state.forums[fid]
        for key in [k for k in state.members if k[0] == fid]:
            del state.members[key]
        for mid in [m.id for m in state.messages.values()
                    if m.kind == POST and m.container_forum_id == fid]:
            if mid in state.messages:
                nodes += self._delete_message(mid)
        return nodes

    def _delete_message(self, mid: int) -> int:
        state = self._state
        nodes = 1
        del state.messages[mid]
        for key in [k for k in state.likes if k[1] == mid]:
            del state.likes[key]
        for child in [m.id for m in state.messages.values()
                      if m.reply_to_message_id == mid]:
            if child in state.messages:
                nodes += self._delete_message(child)
        return nodes

    # -- queries -----------------------------------------------------------

    def execute_query(self, variant: str, params: dict,
                      snapshot: TemporalGraph | None = None):
        if snapshot is not None:
            return self._answer(snapshot, variant, params)
        with self._lock:
            return self._answer(self._state, variant, params)

    def _answer(self, state: TemporalGraph, variant: str, params: dict):
        base = variant[:-1] if variant.endswith(("a", "b")) else variant
        if base == "CR3":
            return self._cr3(state, params)
        if base == "CR13":
            return self._cr13(state, params)
        if base == "CR14":
            return self._cr14(state, params)
        if variant == "SR2":
            return self._sr2(state, params)
        if variant == "SR6":
            return self._sr6(state, params)
        raise IntegrityError(f"unknown query variant {variant}")

    @staticmethod
    def _neighbours(state: TemporalGraph, persons: set[int]) -> set[int]:
        """Everyone who knows one of ``persons``: one scan of the knows edges."""
        out: set[int] = set()
        for (a, b) in state.knows:
            if a in persons:
                out.add(b)
            if b in persons:
                out.add(a)
        return out

    def _cr3(self, state: TemporalGraph, params: dict) -> list[dict]:
        root = params["personId"]
        if root not in state.persons:
            return []
        friends = self._neighbours(state, {root})
        candidates = friends | self._neighbours(state, friends)
        candidates.discard(root)
        cx, cy = params["countryXId"], params["countryYId"]
        start = params["startDate"]
        end = start + params["durationDays"] * 86_400_000
        x_counts = {pid: 0 for pid in candidates
                    if state.persons[pid].country_id not in (cx, cy)}
        y_counts = dict(x_counts)
        for m in state.messages.values():
            pid = m.creator_person_id
            if pid in x_counts and start <= m.lifecycle.creation < end:
                if m.country_id == cx:
                    x_counts[pid] += 1
                if m.country_id == cy:
                    y_counts[pid] += 1
        rows = []
        for pid, x_count in x_counts.items():
            y_count = y_counts[pid]
            if x_count > 0 and y_count > 0:
                rows.append({"personId": pid, "xCount": x_count, "yCount": y_count,
                             "totalCount": x_count + y_count})
        return sorted(rows, key=lambda r: (-r["totalCount"], r["personId"]))

    def _cr13(self, state: TemporalGraph, params: dict) -> dict:
        source, target = params["person1Id"], params["person2Id"]
        if source not in state.persons or target not in state.persons:
            return {"shortestPathLength": -1}
        seen = {source}
        frontier = {source}
        hops = 0
        while frontier:
            if target in frontier:
                return {"shortestPathLength": hops}
            hops += 1
            frontier = self._neighbours(state, frontier) - seen
            seen |= frontier
        return {"shortestPathLength": -1}

    @staticmethod
    def _interaction_counts(state: TemporalGraph) -> dict[tuple[int, int], int]:
        counts: dict[tuple[int, int], int] = {}
        for message in state.messages.values():
            if message.kind != COMMENT:
                continue
            parent = state.messages.get(message.reply_to_message_id)
            if parent is None:
                continue
            a, b = message.creator_person_id, parent.creator_person_id
            if a == b:
                continue
            key = (a, b) if a < b else (b, a)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def _cr14(self, state: TemporalGraph, params: dict) -> dict | None:
        source, target = params["person1Id"], params["person2Id"]
        if source not in state.persons or target not in state.persons:
            return None
        if source == target:
            return {"path": [source], "weight": 0}
        counts = self._interaction_counts(state)
        edges: dict[int, list[tuple[int, int]]] = {}
        for pair in state.knows:
            n = counts.get(pair, 0)
            if n >= 1:
                a, b = pair
                w = _naive_weight(n)
                edges.setdefault(a, []).append((b, w))
                edges.setdefault(b, []).append((a, w))
        # Reached but unsettled persons and their tentative distances.  A
        # person never reached would only be picked once no reached one is
        # left, where the search stops, so settling the cheapest of these
        # by (distance, id) is Dijkstra over every person.
        tentative = {source: 0}
        settled: set[int] = set()
        parent: dict[int, int] = {}
        while tentative:
            cost, node = min((d, v) for v, d in tentative.items())
            if node == target:
                break
            del tentative[node]
            settled.add(node)
            for peer, w in edges.get(node, ()):
                if peer in settled:
                    continue
                if cost + w < tentative.get(peer, math.inf):
                    tentative[peer] = cost + w
                    parent[peer] = node
        if target not in tentative:
            return None
        path = [target]
        while path[-1] != source:
            path.append(parent[path[-1]])
        return {"path": path[::-1], "weight": tentative[target]}

    @staticmethod
    def _root_post(state: TemporalGraph, message: Message) -> Message:
        while message.kind != POST:
            message = state.messages[message.reply_to_message_id]
        return message

    def _sr2(self, state: TemporalGraph, params: dict) -> list[dict]:
        mine = [m for m in state.messages.values()
                if m.creator_person_id == params["personId"]]
        mine.sort(key=lambda m: (-m.lifecycle.creation, -m.id))
        rows = []
        for message in mine[:SR2_LIMIT]:
            root = self._root_post(state, message)
            rows.append({"messageId": message.id,
                         "creationDate": message.lifecycle.creation,
                         "rootPostId": root.id,
                         "rootAuthorId": root.creator_person_id})
        return rows

    def _sr6(self, state: TemporalGraph, params: dict) -> dict | None:
        message = state.messages.get(params["messageId"])
        if message is None:
            return None
        root = self._root_post(state, message)
        forum = state.forums[root.container_forum_id]
        return {"forumId": forum.id, "moderatorPersonId": forum.moderator_person_id}

    # -- audits -------------------------------------------------------------

    def state_at(self) -> dict[str, dict]:
        state = self.begin_read()
        return {coll: getattr(state, coll) for coll in COLLECTIONS}

    def counts(self) -> dict[str, int]:
        return {name: len(values) for name, values in self.state_at().items()}
