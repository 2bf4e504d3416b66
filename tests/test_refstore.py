"""Versioned store: updates, cascades, snapshot isolation, and queries.

A small hand-built social graph drives exact-value query checks; the
naive single-version twin and a dict-based cascade oracle provide the
independent answers for the randomized comparisons.
"""

import bisect
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialbench.datagen import GenConfig, generate_temporal_graph, split_at_cutoff
from socialbench.errors import (
    DependencyMissing,
    IntegrityError,
    SocialBenchError,
    UnknownEntity,
)
from socialbench.model import COUNTRIES, UpdateOperation, check_temporal_invariants
from socialbench.refstore import NaiveStore, ReferenceStore, edge_weight
from socialbench.simtime import MS_PER_DAY, SIM_START

T0 = SIM_START + 30 * MS_PER_DAY
_tick = [0]


def _op(store, op_type, payload, t=None):
    if t is None:
        _tick[0] += 60_000
        t = T0 + _tick[0]
    return store.execute_update(UpdateOperation(op_type, t, SIM_START, payload))


def _person(store, pid, country=1):
    return _op(store, "INS1", {"id": pid, "firstName": "P", "lastName": str(pid),
                               "countryId": country, "universityId": None,
                               "tagInterests": []})


def _knows(store, a, b):
    return _op(store, "INS8", {"person1Id": a, "person2Id": b})


def _forum(store, fid, moderator):
    return _op(store, "INS4", {"id": fid, "moderatorPersonId": moderator})


def _post(store, mid, creator, forum, country=1):
    return _op(store, "INS6", {"id": mid, "creatorPersonId": creator,
                               "containerForumId": forum, "countryId": country,
                               "tagIds": []})


def _comment(store, mid, creator, parent, country=1):
    return _op(store, "INS7", {"id": mid, "creatorPersonId": creator,
                               "replyToMessageId": parent, "countryId": country,
                               "tagIds": []})


def _toy_store():
    """Chain 1-2-3-4-5 plus spur 1-6 and isolated person 7, one forum,
    posts and a comment thread with cross-author replies."""
    store = ReferenceStore()
    for pid, country in [(1, 1), (2, 2), (3, 2), (4, 3), (5, 4), (6, 2), (7, 1)]:
        _person(store, pid, country)
    for a, b in [(1, 2), (2, 3), (3, 4), (4, 5), (1, 6)]:
        _knows(store, a, b)
    _forum(store, 100, 1)
    for pid in (1, 2, 3, 4, 5):
        _op(store, "INS5", {"forumId": 100, "personId": pid})
    _post(store, 200, 2, 100, country=5)
    _post(store, 201, 3, 100, country=6)
    _comment(store, 300, 3, 200, country=5)   # 3 replies to 2
    _comment(store, 301, 2, 300, country=6)   # 2 replies to 3
    _comment(store, 302, 2, 201, country=5)   # 2 replies to 3
    _comment(store, 303, 4, 302, country=6)   # 4 replies to 2
    _op(store, "INS2", {"personId": 5, "messageId": 200})
    _op(store, "INS3", {"personId": 2, "messageId": 300})
    return store


@pytest.fixture
def toy():
    return _toy_store()


class TestEdgeWeight:
    def test_anchor_values(self):
        assert edge_weight(0) == 40
        assert edge_weight(1) == 39
        assert edge_weight(4) == 38
        assert edge_weight(1521) == 1

    def test_floor_at_one(self):
        assert edge_weight(1600) == 1
        assert edge_weight(10**6) == 1

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=500, deadline=None)
    def test_matches_rounding_definition(self, n):
        x = 40.0 - math.sqrt(n)
        if x >= 0:
            expected = math.floor(x + 0.5)
        else:
            expected = -math.floor(-x + 0.5)
        assert edge_weight(n) == max(expected, 1)

    @given(st.integers(min_value=0, max_value=10**6 - 1))
    @settings(max_examples=300, deadline=None)
    def test_monotone_non_increasing(self, n):
        assert edge_weight(n) >= edge_weight(n + 1)


class TestInteractions:
    def test_cross_author_comment_counts(self, toy):
        snap = toy.begin_read()
        # pair (2, 3): comments 300, 301, 302 all cross between them
        assert snap.interaction_count(2, 3) == 3
        assert snap.interaction_count(3, 2) == 3
        # pair (2, 4): comment 303
        assert snap.interaction_count(2, 4) == 1
        assert snap.interaction_count(1, 2) == 0

    def test_self_reply_does_not_count(self, toy):
        _comment(toy, 310, 2, 200)  # 2 replies to their own post
        assert toy.begin_read().interaction_count(2, 2) == 0

    def test_deleting_comment_reverts_count(self, toy):
        before = toy.begin_read().interaction_count(2, 4)
        _op(toy, "DEL7", {"messageId": 303})
        assert toy.begin_read().interaction_count(2, 4) == before - 1


class TestQueries:
    def test_cr3_counts_and_order(self, toy):
        rows = toy.execute_query("CR3a", {
            "personId": 1, "countryXId": 5, "countryYId": 6,
            "startDate": T0, "durationDays": 30})
        # person 2 wrote 200 and 302 in country 5 plus 301 in country 6;
        # person 3 wrote 300 in country 5 plus 201 in country 6.
        assert rows == [
            {"personId": 2, "xCount": 2, "yCount": 1, "totalCount": 3},
            {"personId": 3, "xCount": 1, "yCount": 1, "totalCount": 2},
        ]

    def test_cr3_excludes_residents_of_queried_countries(self, toy):
        _person(toy, 8, country=5)
        _knows(toy, 1, 8)
        rows = toy.execute_query("CR3a", {
            "personId": 1, "countryXId": 5, "countryYId": 6,
            "startDate": T0, "durationDays": 30})
        assert all(row["personId"] != 8 for row in rows)

    def test_cr3_window_is_half_open(self, toy):
        creation = toy.begin_read().message(200).lifecycle.creation
        base = {"personId": 1, "countryXId": 5, "countryYId": 6,
                "durationDays": 1}
        inside = toy.execute_query("CR3a", dict(base, startDate=creation))
        assert any(r["personId"] == 2 for r in inside)

    def test_cr13_distances(self, toy):
        def dist(a, b):
            return toy.execute_query("CR13a", {"person1Id": a, "person2Id": b})

        assert dist(1, 5) == {"shortestPathLength": 4}
        assert dist(1, 3) == {"shortestPathLength": 2}
        assert dist(3, 3) == {"shortestPathLength": 0}
        assert dist(1, 7) == {"shortestPathLength": -1}
        assert dist(1, 999) == {"shortestPathLength": -1}

    def test_cr14_same_person_and_unreachable(self, toy):
        same = toy.execute_query("CR14a", {"person1Id": 3, "person2Id": 3})
        assert same == {"path": [3], "weight": 0}
        assert toy.execute_query("CR14a", {"person1Id": 1, "person2Id": 7}) is None

    def test_cr14_requires_interacting_edges(self, toy):
        # 1-2 are friends but never interacted, so no usable edge exists.
        assert toy.execute_query("CR14a", {"person1Id": 1, "person2Id": 2}) is None
        # 2-3 interacted three times: single hop of weight round(40 - sqrt(3)).
        result = toy.execute_query("CR14a", {"person1Id": 2, "person2Id": 3})
        assert result == {"path": [2, 3], "weight": 38}

    def test_cr14_prefers_cheaper_route(self):
        """Triangle where the direct edge (1 interaction, weight 39) beats
        the two-hop route (25 interactions each, weight 35 + 35)."""
        store = ReferenceStore()
        for pid in (11, 12, 13):
            _person(store, pid)
        for a, b in [(11, 12), (12, 13), (11, 13)]:
            _knows(store, a, b)
        _forum(store, 110, 11)
        _post(store, 500, 11, 110)
        _post(store, 501, 12, 110)
        next_id = 600
        for _ in range(25):
            _comment(store, next_id, 12, 500)
            next_id += 1
        for _ in range(25):
            _comment(store, next_id, 13, 501)
            next_id += 1
        _comment(store, next_id, 13, 500)
        assert edge_weight(25) == 35 and edge_weight(1) == 39
        result = store.execute_query("CR14a", {"person1Id": 11, "person2Id": 13})
        assert result == {"path": [11, 13], "weight": 39}
        result = store.execute_query("CR14a", {"person1Id": 11, "person2Id": 12})
        assert result == {"path": [11, 12], "weight": 35}

    def test_sr2_orders_recent_first_and_caps_at_ten(self, toy):
        for i in range(12):
            _comment(toy, 400 + i, 5, 200)
        rows = toy.execute_query("SR2", {"personId": 5})
        assert len(rows) == 10
        assert [r["messageId"] for r in rows] == list(range(411, 401, -1))
        assert all(r["rootPostId"] == 200 and r["rootAuthorId"] == 2 for r in rows)
        creations = [r["creationDate"] for r in rows]
        assert creations == sorted(creations, reverse=True)

    def test_sr2_breaks_creation_ties_by_higher_id(self, toy):
        t = T0 + 10**9
        _op(toy, "INS7", {"id": 420, "creatorPersonId": 5, "replyToMessageId": 200,
                          "countryId": 1, "tagIds": []}, t=t)
        _op(toy, "INS7", {"id": 421, "creatorPersonId": 5, "replyToMessageId": 200,
                          "countryId": 1, "tagIds": []}, t=t)
        rows = toy.execute_query("SR2", {"personId": 5})
        assert [r["messageId"] for r in rows[:2]] == [421, 420]

    def test_sr6_resolves_forum_through_thread(self, toy):
        expected = {"forumId": 100, "moderatorPersonId": 1}
        assert toy.execute_query("SR6", {"messageId": 303}) == expected
        assert toy.execute_query("SR6", {"messageId": 200}) == expected
        assert toy.execute_query("SR6", {"messageId": 999}) is None

    def test_unknown_variant_rejected(self, toy):
        with pytest.raises(IntegrityError):
            toy.execute_query("CR99", {})


class TestErrorContracts:
    def test_duplicate_insert(self, toy):
        with pytest.raises(IntegrityError):
            _person(toy, 1)

    def test_missing_reference(self, toy):
        with pytest.raises(DependencyMissing):
            _op(toy, "INS3", {"personId": 1, "messageId": 888})
        with pytest.raises(DependencyMissing):
            _comment(toy, 900, 1, 888)

    def test_like_kind_must_match_target(self, toy):
        with pytest.raises(IntegrityError):
            _op(toy, "INS2", {"personId": 1, "messageId": 300})  # 300 is a comment

    def test_delete_kind_must_match_target(self, toy):
        with pytest.raises(IntegrityError):
            _op(toy, "DEL6", {"messageId": 300})  # comment via post delete

    def test_delete_absent_or_dead(self, toy):
        with pytest.raises(UnknownEntity):
            _op(toy, "DEL1", {"personId": 999})
        _op(toy, "DEL7", {"messageId": 303})
        with pytest.raises(UnknownEntity):
            _op(toy, "DEL7", {"messageId": 303})


def _closure_oracle(state, kind, key, moderated_forums=True):
    """Recursive cascade closure over a state_at() dump, independent of the
    store's own traversal."""
    doomed = set()

    def kill_message(mid):
        if ("messages", mid) in doomed or mid not in state["messages"]:
            return
        doomed.add(("messages", mid))
        for (pid, lmid) in state["likes"]:
            if lmid == mid:
                doomed.add(("likes", (pid, lmid)))
        for cid, msg in state["messages"].items():
            if msg.reply_to_message_id == mid:
                kill_message(cid)

    def kill_forum(fid):
        if ("forums", fid) in doomed or fid not in state["forums"]:
            return
        doomed.add(("forums", fid))
        for (mfid, pid) in state["members"]:
            if mfid == fid:
                doomed.add(("members", (mfid, pid)))
        for mid, msg in state["messages"].items():
            if msg.container_forum_id == fid:
                kill_message(mid)

    def kill_person(pid):
        doomed.add(("persons", pid))
        for pair in state["knows"]:
            if pid in pair:
                doomed.add(("knows", pair))
        for (lpid, mid) in state["likes"]:
            if lpid == pid:
                doomed.add(("likes", (lpid, mid)))
        for (fid, mpid) in state["members"]:
            if mpid == pid:
                doomed.add(("members", (fid, mpid)))
        for mid, msg in state["messages"].items():
            if msg.creator_person_id == pid:
                kill_message(mid)
        if moderated_forums:
            for fid, forum in state["forums"].items():
                if forum.moderator_person_id == pid:
                    kill_forum(fid)

    {"persons": kill_person, "forums": kill_forum, "messages": kill_message}[kind](key)
    return sorted(doomed)


def _assert_no_dangling(state):
    for (a, b) in state["knows"]:
        assert a in state["persons"] and b in state["persons"]
    for (pid, mid) in state["likes"]:
        assert pid in state["persons"] and mid in state["messages"]
    for (fid, pid) in state["members"]:
        assert fid in state["forums"] and pid in state["persons"]
    for msg in state["messages"].values():
        assert msg.creator_person_id in state["persons"]
        if msg.reply_to_message_id is not None:
            assert msg.reply_to_message_id in state["messages"]
            assert msg.root_post_id in state["messages"]
        if msg.container_forum_id is not None:
            assert msg.container_forum_id in state["forums"]
    for forum in state["forums"].values():
        assert forum.moderator_person_id in state["persons"]


class TestCascades:
    def test_person_closure_matches_oracle(self, toy):
        expected = _closure_oracle(toy.state_at(), "persons", 2)
        assert toy.cascade_preview("persons", 2) == expected
        assert ("messages", 303) in expected  # grandchild by another author
        assert ("knows", (1, 2)) in expected

    def test_delete_applies_whole_closure_atomically(self, toy):
        expected = set(_closure_oracle(toy.state_at(), "persons", 2))
        before = toy.state_at()
        result = _op(toy, "DEL1", {"personId": 2})
        after = toy.state_at()
        gone = {(kind, key) for kind in before
                for key in before[kind] if key not in after[kind]}
        assert gone == expected
        assert result["cascadeNodes"] == sum(
            1 for kind, _ in expected if kind in ("persons", "forums", "messages"))
        _assert_no_dangling(after)

    def test_forum_delete_takes_posts_and_threads(self, toy):
        expected = set(_closure_oracle(toy.state_at(), "forums", 100))
        _op(toy, "DEL4", {"forumId": 100})
        state = toy.state_at()
        assert ("messages", 303) in expected
        assert not state["messages"]  # every message lived in forum 100
        _assert_no_dangling(state)

    def test_moderator_death_fells_forum(self, toy):
        expected = set(_closure_oracle(toy.state_at(), "persons", 1))
        assert ("forums", 100) in expected
        _op(toy, "DEL1", {"personId": 1})
        _assert_no_dangling(toy.state_at())

    def test_moderated_forum_survives_when_disabled(self):
        store = ReferenceStore(delete_forums_of_deleted_moderator=False)
        _person(store, 1)
        _person(store, 2)
        _forum(store, 100, 1)
        _op(store, "DEL1", {"personId": 1})
        assert 100 in store.state_at()["forums"]

    def test_random_roots_against_oracle(self, sas):
        store = ReferenceStore()
        store.bulk_load(sas.snapshot)
        state = store.state_at()
        rng = random.Random(99)
        persons = sorted(state["persons"])
        messages = sorted(state["messages"])
        roots = ([("persons", rng.choice(persons)) for _ in range(10)]
                 + [("messages", rng.choice(messages)) for _ in range(10)])
        for kind, key in roots:
            assert store.cascade_preview(kind, key) == \
                _closure_oracle(state, kind, key), (kind, key)


class TestVersioning:
    def test_versions_increase_by_one(self, toy):
        v1 = _op(toy, "INS5", {"forumId": 100, "personId": 6})["version"]
        v2 = _op(toy, "DEL5", {"forumId": 100, "personId": 6})["version"]
        assert v2 == v1 + 1

    def test_pinned_snapshot_ignores_later_writes(self, toy):
        pinned = toy.begin_read()
        rows_before = toy.execute_query("SR2", {"personId": 2}, snapshot=pinned)
        _op(toy, "DEL1", {"personId": 2})
        assert toy.execute_query("SR2", {"personId": 2}, snapshot=pinned) == rows_before
        assert toy.execute_query("SR2", {"personId": 2}) == []

    def test_pinned_interaction_counts(self, toy):
        pinned = toy.begin_read()
        assert pinned.interaction_count(2, 3) == 3
        _comment(toy, 450, 3, 301)
        assert pinned.interaction_count(2, 3) == 3
        assert toy.begin_read().interaction_count(2, 3) == 4

    def test_state_at_old_version(self, toy):
        v = toy.begin_read().version
        _op(toy, "DEL7", {"messageId": 303})
        assert 303 in toy.state_at(v)["messages"]
        assert 303 not in toy.state_at()["messages"]

    def test_bulk_load_only_once(self, toy, sas):
        with pytest.raises(IntegrityError):
            toy.bulk_load(sas.snapshot)


@pytest.mark.parametrize("store_cls", [ReferenceStore, NaiveStore])
class TestBulkLoad:
    def test_rejected_load_leaves_store_empty(self, store_cls, sas):
        good = sas.snapshot
        like = next(iter(good.likes.values()))
        dangling = replace(like, message_id=max(good.messages) + 1)
        bad = replace(good, likes={**good.likes,
                                   (dangling.person_id, dangling.message_id): dangling})
        store = store_cls()
        with pytest.raises(IntegrityError):
            store.bulk_load(bad)
        assert store.version == 0
        assert not any(store.state_at().values())
        assert store.bulk_load(good) == 1
        assert store.counts() == good.counts()

    def test_forum_may_outlive_moderator_when_cascade_is_off(self, store_cls):
        # Seed 11 retires the moderator of forum 17 before the cutoff.
        cfg = GenConfig(seed=11, num_persons=100, cutoff_fraction=0.6,
                        delete_forums_of_deleted_moderator=False)
        snapshot = split_at_cutoff(generate_temporal_graph(cfg), cfg).snapshot
        assert snapshot.forums[17].moderator_person_id not in snapshot.persons
        store = store_cls(delete_forums_of_deleted_moderator=False)
        store.bulk_load(snapshot)
        assert 17 in store.state_at()["forums"]
        with pytest.raises(IntegrityError):
            store_cls().bulk_load(snapshot)


def _random_params(rng, persons, messages):
    countries = [c.id for c in COUNTRIES]
    cx, cy = rng.sample(countries, 2)
    start = SIM_START + rng.randrange(0, 800) * MS_PER_DAY
    return {
        "CR3a": {"personId": rng.choice(persons), "countryXId": cx,
                 "countryYId": cy, "startDate": start, "durationDays": 28},
        "CR13a": {"person1Id": rng.choice(persons), "person2Id": rng.choice(persons)},
        "CR14a": {"person1Id": rng.choice(persons), "person2Id": rng.choice(persons)},
        "SR2": {"personId": rng.choice(persons)},
        "SR6": {"messageId": rng.choice(messages)},
    }


class TestNaiveEquivalence:
    def test_random_queries_agree(self, sas):
        ref = ReferenceStore()
        naive = NaiveStore()
        ref.bulk_load(sas.snapshot)
        naive.bulk_load(sas.snapshot)
        persons = sorted(sas.snapshot.persons)
        messages = sorted(sas.snapshot.messages)
        rng = random.Random(4321)
        for i in range(60):
            for variant, params in _random_params(rng, persons, messages).items():
                a = ref.execute_query(variant, params)
                b = naive.execute_query(variant, params)
                if variant == "CR14a":
                    # Cheapest paths can tie; the weight is the contract.
                    assert (a is None) == (b is None), (i, params)
                    if a is not None:
                        assert a["weight"] == b["weight"], (i, params)
                        self._check_path(ref, a)
                else:
                    assert a == b, (i, variant, params)

    @staticmethod
    def _check_path(store, result):
        """A returned path must consist of interacting friend hops whose
        weights sum to the reported total."""
        snap = store.begin_read()
        path = result["path"]
        total = 0
        for a, b in zip(path, path[1:]):
            assert b in snap.friend_ids(a)
            count = snap.interaction_count(a, b)
            assert count >= 1
            total += edge_weight(count)
        assert total == result["weight"]


def _failed_updates(store, snapshot, stream) -> list[str]:
    store.bulk_load(snapshot)
    failed = []
    for op in stream:
        try:
            store.execute_update(op)
        except SocialBenchError as exc:
            failed.append(f"{op.op_type}: {exc}")
    return failed


def _deletes_hoisted(stream):
    """The stream with every delete moved to the first point its gate
    opens: right after the last operation scheduled at or before its
    dependency time.  Concurrent writers may commit a delete that early."""
    times = [op.scheduled_time for op in stream]
    released = {}
    for op in stream:
        if not op.is_insert:
            at = bisect.bisect_right(times, op.dependency_time)
            released.setdefault(at, []).append(op)
    order = []
    for index, op in enumerate(stream):
        order += released.get(index, [])
        if op.is_insert:
            order.append(op)
    return order


class TestGeneratedStreamsReplay:
    def test_forums_left_by_deleted_moderators(self):
        cfg = GenConfig(seed=1, num_persons=150, cutoff_fraction=0.6,
                        person_deletion_rate=0.3, delete_forums_of_deleted_moderator=False)
        graph = generate_temporal_graph(cfg)
        assert check_temporal_invariants(graph) == []
        sas = split_at_cutoff(graph, cfg)
        for store_cls in (ReferenceStore, NaiveStore):
            store = store_cls(delete_forums_of_deleted_moderator=False)
            assert _failed_updates(store, sas.snapshot, sas.stream) == [], store_cls

    def test_deletes_released_at_their_gate(self):
        cfg = GenConfig(seed=42, num_persons=500, cutoff_fraction=0.55, content_scale=4.0)
        sas = split_at_cutoff(generate_temporal_graph(cfg), cfg)
        stream = _deletes_hoisted(sas.stream)
        assert stream != sas.stream
        assert _failed_updates(ReferenceStore(), sas.snapshot, stream) == []
