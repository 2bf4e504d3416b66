"""Concurrency correctness scenarios.

Two scenarios probe the store's isolation story.  Each runs its pinned
interleaving as ordered steps on the caller's thread, chosen by a seed
(or given), so a seed reproduces the steps exactly:

  * traversal stability: a reader walks a friendship chain hop by hop
    on one snapshot while, between hops, a delete severs the chain and
    an insert adds a shortcut; the walk must see the chain as it was,
    in full, and never the shortcut;
  * cascade atomicity: readers repeatedly verify that every comment
    they can see has its full ancestor line alive while a post's reply
    tree is cascade-deleted at a seeded round.  Besides the ordered
    probes, one prober thread runs freely, so it races the delete.

Two deliberately broken store variants prove the scenarios can fail:
one re-reads the latest version on every access instead of honoring
its snapshot, the other commits cascades in two halves.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

from .errors import UnknownEntity
from .model import (
    COMMENT,
    DEL_POST,
    INS_COMMENT,
    INS_KNOWS,
    INS_LIKE_POST,
    INS_FORUM,
    INS_MEMBER,
    INS_PERSON,
    INS_POST,
    DEL_PERSON,
    UpdateOperation,
    delete_target,
)
from .refstore import ReferenceStore, Snapshot
from .simtime import SIM_START


@dataclass
class ScenarioResult:
    name: str
    passed: bool
    violations: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)


# -- deliberately broken stores ---------------------------------------------


class _LiveSnapshot(Snapshot):
    """Forgets its pin: every access reads the newest version."""

    @property
    def version(self) -> int:
        return self.store._version


class NonVersionedReadStore(ReferenceStore):
    """Fault injection: reads see whatever is committed right now."""

    def begin_read(self) -> Snapshot:
        return _LiveSnapshot(self, self._version)


class SplitCascadeStore(ReferenceStore):
    """Fault injection: deletes commit their cascade in two halves.

    A callable assigned to between_commits runs after the first half is
    published, which is exactly when other readers can catch the store
    with a torn cascade.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.between_commits = None

    def _apply_delete(self, op: UpdateOperation) -> tuple[int, int]:
        collection, key = delete_target(op)
        with self._lock:
            closure = self._closure_unlocked(collection, key)
            if not closure:
                raise UnknownEntity(f"{collection} {key} is absent or already deleted")
            half = max(1, len(closure) // 2)
            version = self._version + 1
            nodes = self._tombstone_all(closure[:half], version)
            self._version = version
        if self.between_commits is not None:
            self.between_commits()
        with self._lock:
            version = self._version + 1
            nodes += self._tombstone_all(closure[half:], version)
            self._version = version
        return version, nodes


# -- scenario plumbing --------------------------------------------------------


def _op(op_type: str, t: int, payload: dict) -> UpdateOperation:
    return UpdateOperation(op_type=op_type, scheduled_time=t,
                           dependency_time=SIM_START, payload=payload)


def _insert_person(store, pid: int, t: int) -> None:
    store.execute_update(_op(INS_PERSON, t, {
        "id": pid, "firstName": f"P{pid}", "lastName": "Chain",
        "countryId": 1, "universityId": 101, "tagInterests": [201]}))


# -- scenario 1: traversal stability ------------------------------------------

_CHAIN = (9001, 9002, 9003, 9004)
_BRIDGE = 9005


def run_traversal_anomaly(store_factory=ReferenceStore, seed: int = 0,
                          delete_after_hop: int | None = None,
                          insert_after_hop: int | None = None) -> ScenarioResult:
    """Hop-by-hop walk of a 4-person chain with edits between hops.

    The walk pins one snapshot.  After a seeded (or given) hop the
    chain's second person is deleted; after another, a fifth person
    bridging the chain's tail is inserted.  The walk passes if it sees
    exactly the four original persons with the far end at distance 3
    and never observes the bridge person.
    """
    rng = random.Random(seed)
    if delete_after_hop is None:
        delete_after_hop = rng.randint(0, 4)
    if insert_after_hop is None:
        insert_after_hop = rng.randint(0, 4)

    store = store_factory()
    t = SIM_START + 1_000_000
    for pid in _CHAIN:
        _insert_person(store, pid, t)
    for a, b in zip(_CHAIN, _CHAIN[1:]):
        store.execute_update(_op(INS_KNOWS, t + 1, {"person1Id": a, "person2Id": b}))

    def delete_link() -> None:
        store.execute_update(_op(DEL_PERSON, t + 10, {"personId": _CHAIN[1]}))

    def insert_bridge() -> None:
        _insert_person(store, _BRIDGE, t + 20)
        store.execute_update(_op(INS_KNOWS, t + 21,
                                 {"person1Id": _CHAIN[2], "person2Id": _BRIDGE}))
        store.execute_update(_op(INS_KNOWS, t + 22,
                                 {"person1Id": _BRIDGE, "person2Id": _CHAIN[3]}))

    snapshot = store.begin_read()
    dist = {_CHAIN[0]: 0}
    frontier = [_CHAIN[0]]
    for hop in range(5):
        if delete_after_hop == hop:
            delete_link()
        if insert_after_hop == hop:
            insert_bridge()
        if hop == 4 or not frontier:
            continue
        nxt = []
        for node in frontier:
            for peer in snapshot.friend_ids(node):
                if peer not in dist:
                    dist[peer] = hop + 1
                    nxt.append(peer)
        frontier = sorted(nxt)

    violations = []
    if set(dist) != set(_CHAIN):
        violations.append(f"walk saw {sorted(dist)}, expected {sorted(_CHAIN)}")
    if dist.get(_CHAIN[3]) != 3:
        violations.append(f"far end at distance {dist.get(_CHAIN[3])}, expected 3")
    if _BRIDGE in dist:
        violations.append("walk observed the concurrently inserted bridge person")
    return ScenarioResult(
        name="traversal_anomaly", passed=not violations, violations=violations,
        details={"deleteAfterHop": delete_after_hop,
                 "insertAfterHop": insert_after_hop,
                 "distances": dist})


# -- scenario 2: cascade atomicity --------------------------------------------


def _probe_orphans(store) -> list[str]:
    """One snapshot-consistent ancestry check over all visible comments."""
    snapshot = store.begin_read()
    version = snapshot.version
    problems = []
    for mid, rec in list(store._tables["messages"].items()):
        if not rec.visible_at(version):
            continue
        message = rec.value
        if message.kind != COMMENT:
            continue
        parent = snapshot.message(message.reply_to_message_id)
        if parent is None:
            problems.append(f"comment {mid} visible without its parent "
                            f"{message.reply_to_message_id} at version {version}")
        root = snapshot.message(message.root_post_id)
        if root is None:
            problems.append(f"comment {mid} visible without its thread root "
                            f"{message.root_post_id} at version {version}")
    return problems


def run_cascade_atomicity(store_factory=ReferenceStore, seed: int = 0,
                          probe_rounds: int = 40) -> ScenarioResult:
    """Readers hunt for torn cascades while a reply tree is deleted.

    A post with a comment chain (and likes) is cascade-deleted after a
    seeded probe round while one prober thread keeps checking, freely
    racing the delete, that every comment it can see still has its
    parent and root.  If the store exposes a between_commits hook, one
    probe runs exactly mid-delete, which catches stores that publish
    cascades piecemeal.  A delete that leaves the post visible is a
    violation.
    """
    rng = random.Random(seed)
    store = store_factory()
    t = SIM_START + 2_000_000
    _insert_person(store, 9101, t)
    _insert_person(store, 9102, t)
    store.execute_update(_op(INS_FORUM, t + 1, {"id": 9201, "moderatorPersonId": 9101}))
    store.execute_update(_op(INS_MEMBER, t + 2, {"forumId": 9201, "personId": 9102}))
    store.execute_update(_op(INS_POST, t + 3, {
        "id": 9301, "creatorPersonId": 9101, "containerForumId": 9201,
        "countryId": 1, "tagIds": [201]}))
    parent = 9301
    for cid in (9302, 9303, 9304, 9305):
        store.execute_update(_op(INS_COMMENT, t + 4, {
            "id": cid, "creatorPersonId": 9102 if cid % 2 else 9101,
            "replyToMessageId": parent, "countryId": 1, "tagIds": []}))
        parent = cid
    store.execute_update(_op(INS_LIKE_POST, t + 5,
                             {"personId": 9102, "messageId": 9301}))

    violations: list[str] = []
    mid_probe_ran = False
    if hasattr(store, "between_commits"):
        def midpoint_probe() -> None:
            nonlocal mid_probe_ran
            violations.extend(_probe_orphans(store))
            mid_probe_ran = True
        store.between_commits = midpoint_probe

    fire_round = rng.randrange(1, probe_rounds)
    stop = threading.Event()
    probe_errors: list[BaseException] = []

    def prober() -> None:
        while not stop.is_set():
            try:
                violations.extend(_probe_orphans(store))
            except BaseException as exc:
                probe_errors.append(exc)
                return

    probe_thread = threading.Thread(target=prober, name="prober", daemon=True)
    probe_thread.start()
    try:
        for round_no in range(probe_rounds):
            violations.extend(_probe_orphans(store))
            if round_no == fire_round:
                store.execute_update(_op(DEL_POST, t + 100, {"messageId": 9301}))
    finally:
        stop.set()
        probe_thread.join()
    if probe_errors:
        raise probe_errors[0]

    if store.begin_read().message(9301) is not None:
        violations.append("post 9301 still visible after its delete")
    return ScenarioResult(
        name="cascade_atomicity", passed=not violations, violations=violations,
        details={"fireRound": fire_round, "probeRounds": probe_rounds,
                 "midProbeRan": mid_probe_ran})
