"""Versioned store: updates, cascades, snapshot isolation, and queries.

A small hand-built social graph drives exact-value query checks; the
naive single-version twin and a dict-based cascade oracle provide the
independent answers for the randomized comparisons.
"""

import ast
import bisect
import hashlib
import inspect
import json
import math
import random
import sys
import threading
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialbench.acid import SplitCascadeStore
from socialbench.datagen import GenConfig, generate_temporal_graph, split_at_cutoff
from socialbench.driver import (
    DriverConfig,
    QueryInstance,
    Schedule,
    ScheduleEntry,
    build_schedule,
    cross_validate,
)
from socialbench.errors import (
    DependencyMissing,
    IntegrityError,
    SocialBenchError,
    UnknownEntity,
)
from socialbench.model import COUNTRIES, UpdateOperation, check_temporal_invariants
from socialbench.paramgen import ParamGenOptions, generate_parameters
from socialbench.refstore import NaiveStore, ReferenceStore, edge_weight
from socialbench.refstore import naive as naive_module
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


def _comment(store, mid, creator, parent, country=1, t=None):
    return _op(store, "INS7", {"id": mid, "creatorPersonId": creator,
                               "replyToMessageId": parent, "countryId": country,
                               "tagIds": []}, t)


def _toy_store(store_cls=ReferenceStore):
    """Chain 1-2-3-4-5 plus spur 1-6 and isolated person 7, one forum,
    posts and a comment thread with cross-author replies."""
    store = store_cls()
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


def _two_routes_of_weight_76(store_cls=ReferenceStore):
    """A store with two cheapest routes from 31 to 34, both of weight 76:
    31-32-34 (39 + 37) and 31-33-34 (38 + 38)."""
    store = store_cls()
    for pid in (31, 32, 33, 34):
        _person(store, pid)
    for a, b in [(31, 32), (32, 34), (31, 33), (33, 34)]:
        _knows(store, a, b)
    _forum(store, 310, 31)
    for pid in (31, 32, 33):
        _post(store, 700 + pid, pid, 310)
    next_id = 800
    for author, replier, times in [(31, 32, 1), (32, 34, 9), (31, 33, 4), (33, 34, 4)]:
        for _ in range(times):
            _comment(store, next_id, replier, 700 + author)
            next_id += 1
    assert [edge_weight(n) for n in (1, 9, 4)] == [39, 37, 38]
    return store


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

    def test_cr14_tie_break_follows_person1(self):
        """The search from person1 settles 33 first and keeps the first
        route it finds to the target, so each direction returns a
        different path.  Triggered SR2 reads follow ``path[:3]``."""
        store = _two_routes_of_weight_76()
        forward = store.execute_query("CR14b", {"person1Id": 31, "person2Id": 34})
        assert forward == {"path": [31, 33, 34], "weight": 76}
        backward = store.execute_query("CR14b", {"person1Id": 34, "person2Id": 31})
        assert backward == {"path": [34, 32, 31], "weight": 76}

    def test_cross_validate_compares_whole_cr14_paths(self):
        """A store that answers the other route of the same weight diverges."""
        store = _two_routes_of_weight_76()

        class OtherRoute:
            def execute_query(self, variant, params, snapshot=None):
                result = store.execute_query(variant, params, snapshot)
                if variant == "CR14b":
                    return {**result, "path": [31, 32, 34]}
                return result

        pair = {"person1Id": 31, "person2Id": 34}
        assert store.execute_query("CR14b", pair)["path"] == [31, 33, 34]
        entry = ScheduleEntry(seq=0, wall_offset_ms=Fraction(0), due_secs=0.0,
                              query=QueryInstance(variant="CR14b", params=pair))
        schedule = Schedule(cutoff=T0, entries=[entry])
        outcome = cross_validate(store, OtherRoute(), schedule, DriverConfig(pacing=False))
        assert outcome["diffCount"] == 1
        assert outcome["variantsWithDiffs"] == ["CR14b"]

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

    @pytest.mark.parametrize("store_cls", [ReferenceStore, NaiveStore])
    def test_sr2_breaks_a_creation_tie_at_its_limit_by_higher_id(self, store_cls):
        """The tenth and eleventh newest messages share a creation time, and
        the timeline holds the higher id first, so the walk from its end
        must read past the tenth to keep the higher id."""
        store = _toy_store(store_cls)
        t = T0 + 10**9
        for mid in (411, 410):
            _comment(store, mid, 6, 200, t=t)
        for i, mid in enumerate(range(401, 410), start=1):
            _comment(store, mid, 6, 200, t=t + i)
        rows = store.execute_query("SR2", {"personId": 6})
        assert [r["messageId"] for r in rows] == [*range(409, 400, -1), 411]

    def test_sr6_resolves_forum_through_thread(self, toy):
        expected = {"forumId": 100, "moderatorPersonId": 1}
        assert toy.execute_query("SR6", {"messageId": 303}) == expected
        assert toy.execute_query("SR6", {"messageId": 200}) == expected
        assert toy.execute_query("SR6", {"messageId": 999}) is None

    def test_unknown_variant_rejected(self, toy):
        with pytest.raises(IntegrityError):
            toy.execute_query("CR99", {})


@pytest.mark.parametrize("store_cls", [ReferenceStore, NaiveStore])
def test_variant_names_are_exact(store_cls):
    store = store_cls()
    for pid in (1, 2):
        _person(store, pid)
    _knows(store, 1, 2)
    pair = {"person1Id": 1, "person2Id": 2}
    for variant in ("CR13", "CR13a", "CR13b"):
        assert store.execute_query(variant, pair) == {"shortestPathLength": 1}
    for variant in ("CR13bab", "CR13ab", "CR13bb", "CR14aa", "CR3ba", "SR2a", ""):
        with pytest.raises(IntegrityError):
            store.execute_query(variant, pair)


def _footprint(store):
    """What a refused update must leave as it was: the version and the
    live state, and on a ReferenceStore the length of every creator
    timeline and of every parent index's record list."""
    out = [store.version, store.state_at()]
    if isinstance(store, ReferenceStore):
        out.append({creator: (len(times), len(records))
                    for creator, (times, records) in store._timelines.items()})
        out.append({pair: {key: len(records) for key, records in index.items()}
                    for pair, index in store._by_parent.items()})
    return out


class TestErrorContracts:
    """The oracle refuses what the reference store refuses, and a refused
    insert leaves either store as it was."""

    STORES = (ReferenceStore, NaiveStore)

    def _refused(self, error, *inserts):
        for store_cls in self.STORES:
            store = _toy_store(store_cls)
            before = _footprint(store)
            for insert in inserts:
                with pytest.raises(error):
                    insert(store)
                assert _footprint(store) == before, store_cls

    def test_duplicate_insert(self):
        # Every parent of each duplicate is live, so only the key refuses it.
        self._refused(IntegrityError,
                      lambda store: _person(store, 1),
                      lambda store: _knows(store, 2, 1),
                      lambda store: _post(store, 200, 2, 100),
                      lambda store: _comment(store, 300, 3, 200),
                      lambda store: _op(store, "INS3", {"personId": 2, "messageId": 300}),
                      lambda store: _op(store, "INS5", {"forumId": 100, "personId": 1}))

    def test_missing_reference(self):
        self._refused(DependencyMissing,
                      lambda store: _op(store, "INS3", {"personId": 1, "messageId": 888}),
                      lambda store: _op(store, "INS2", {"personId": 999, "messageId": 200}),
                      lambda store: _comment(store, 900, 1, 888),
                      lambda store: _comment(store, 900, 999, 200),
                      lambda store: _post(store, 900, 1, 777),
                      lambda store: _op(store, "INS5", {"forumId": 100, "personId": 999}))

    def test_like_kind_must_match_target(self):
        self._refused(IntegrityError,  # 300 is a comment, 200 a post
                      lambda store: _op(store, "INS2", {"personId": 1, "messageId": 300}),
                      lambda store: _op(store, "INS3", {"personId": 1, "messageId": 200}))

    # SplitCascadeStore commits a cascade differently, but refuses the
    # same deletes.
    def test_delete_kind_must_match_target(self):
        for store_cls in self.STORES + (SplitCascadeStore,):
            store = _toy_store(store_cls)
            with pytest.raises(IntegrityError):
                _op(store, "DEL6", {"messageId": 300})  # comment via post delete
            assert 300 in store.state_at()["messages"], store_cls

    def test_delete_absent_or_dead(self):
        for store_cls in self.STORES + (SplitCascadeStore,):
            store = _toy_store(store_cls)
            with pytest.raises(UnknownEntity):
                _op(store, "DEL1", {"personId": 999})
            _op(store, "DEL7", {"messageId": 303})
            with pytest.raises(UnknownEntity):
                _op(store, "DEL7", {"messageId": 303})


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


def _delete_op(state, kind, key):
    """The op type and payload that delete the person, forum, message or
    knows edge key of the state_at() dump state."""
    if kind == "messages":
        return ("DEL6" if state["messages"][key].kind == "Post" else "DEL7",
                {"messageId": key})
    if kind == "knows":
        return "DEL8", {"person1Id": key[0], "person2Id": key[1]}
    return {"persons": ("DEL1", {"personId": key}),
            "forums": ("DEL4", {"forumId": key})}[kind]


def _gone(before, after):
    """What a state_at() dump lost between before and after."""
    return {(kind, key) for kind in before for key in before[kind] if key not in after[kind]}


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
        before = toy.state_at()
        expected = set(_closure_oracle(before, "persons", 2))
        _op(toy, "DEL1", {"personId": 2})
        assert _gone(before, toy.state_at()) == expected
        assert ("messages", 303) in expected  # grandchild by another author
        assert ("knows", (1, 2)) in expected

    def test_delete_applies_whole_closure_atomically(self, toy):
        expected = set(_closure_oracle(toy.state_at(), "persons", 2))
        before = toy.state_at()
        result = _op(toy, "DEL1", {"personId": 2})
        after = toy.state_at()
        assert _gone(before, after) == expected
        assert result["cascadeNodes"] == sum(
            1 for kind, _ in expected if kind in ("persons", "forums", "messages"))
        _assert_no_dangling(after)

    def test_forum_delete_takes_posts_and_threads(self):
        """On the reference store and on the oracle alike."""
        for store_cls in (ReferenceStore, NaiveStore):
            store = _toy_store(store_cls)
            before = store.state_at()
            expected = set(_closure_oracle(before, "forums", 100))
            result = _op(store, "DEL4", {"forumId": 100})
            state = store.state_at()
            assert ("messages", 303) in expected
            assert _gone(before, state) == expected, store_cls
            # The forum, its two posts and their four comments.
            assert result["cascadeNodes"] == 7, store_cls
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
        """Each root is deleted from a freshly loaded store."""
        state = sas.snapshot
        rng = random.Random(99)
        persons = sorted(state.persons)
        messages = sorted(state.messages)
        roots = ([("persons", rng.choice(persons)) for _ in range(10)]
                 + [("messages", rng.choice(messages)) for _ in range(10)])
        for kind, key in roots:
            store = ReferenceStore()
            store.bulk_load(sas.snapshot)
            before = store.state_at()
            _op(store, *_delete_op(before, kind, key))
            assert _gone(before, store.state_at()) == \
                set(_closure_oracle(before, kind, key)), (kind, key)


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

    def test_read_at_the_deleting_version_sees_no_friendship(self):
        """A friendship is invisible from the version that deletes it on,
        in CR13's and in CR14's adjacency alike."""
        store = ReferenceStore()
        for pid in (1, 2):
            _person(store, pid)
        _knows(store, 1, 2)
        _forum(store, 100, 1)
        _post(store, 200, 1, 100)
        _comment(store, 300, 2, 200)
        pair = {"person1Id": 1, "person2Id": 2}
        assert store.execute_query("CR13", pair) == {"shortestPathLength": 1}
        assert store.execute_query("CR14", pair) == {"path": [1, 2], "weight": 39}
        version = _op(store, "DEL8", pair)["version"]
        snapshot = store.begin_read()
        assert snapshot.version == version
        assert store.execute_query("CR13", pair, snapshot) == {"shortestPathLength": -1}
        assert store.execute_query("CR14", pair, snapshot) is None

    def test_bulk_load_only_once(self, toy, sas):
        with pytest.raises(IntegrityError):
            toy.bulk_load(sas.snapshot)


class _BothStores:
    """Applies every update to a ReferenceStore and a NaiveStore."""

    def __init__(self):
        self.ref, self.naive = ReferenceStore(), NaiveStore()

    def execute_update(self, op):
        self.naive.execute_update(op)
        return self.ref.execute_update(op)


def _grid_world(side=6, seed=3):
    """A side x side grid of friends under shuffled ids, so that the
    (distance, id) order does not follow the grid.  Every grid friendship
    carries one reply (a hop of 39), a few carry three (38); diagonal
    friendships carry none, and a separate pair of friends is reachable
    from nobody else.  252 of the 631 connected pairs have two or more
    cheapest paths, up to 29."""
    rng = random.Random(seed)
    ids = rng.sample(range(1000, 2000), side * side + 2)
    cell = {(r, c): ids[r * side + c] for r in range(side) for c in range(side)}
    loner_a, loner_b = ids[-2:]
    stores = _BothStores()
    for pid in ids:
        _person(stores, pid)
    _forum(stores, 1, ids[0])
    for pid in ids:
        _post(stores, pid, pid, 1)
    replies = {(loner_a, loner_b): 1}
    for (r, c), pid in cell.items():
        for dr, dc in ((0, 1), (1, 0)):
            if (r + dr, c + dc) in cell:
                replies[pid, cell[r + dr, c + dc]] = 3 if rng.random() < 0.1 else 1
        if (r + 1, c + 1) in cell:
            replies[pid, cell[r + 1, c + 1]] = 0
    next_id = 10_000
    for (a, b), times in replies.items():
        _knows(stores, a, b)
        for _ in range(times):
            _comment(stores, next_id, b, a)
            next_id += 1
    assert edge_weight(1) == 39 and edge_weight(3) == 38
    return stores, ids


class TestCheapestPathTies:
    def test_every_pair_matches_naive_store(self):
        """With most hops equally cheap, the parent rule alone picks the
        path: both stores must pick the same one for every ordered pair."""
        stores, ids = _grid_world()
        paths = 0
        for source in ids:
            for target in ids:
                pair = {"person1Id": source, "person2Id": target}
                got = stores.ref.execute_query("CR14b", pair)
                assert got == stores.naive.execute_query("CR14b", pair), pair
                paths += got is not None and len(got["path"]) > 6
        assert paths > 100

    def test_dead_end_is_not_walked(self):
        """A dead end as long as the path hangs off person1.  A one-sided
        Dijkstra would walk all of it; the searches from both ends bound
        every person's distance to person2, so the far half is never read."""
        stores = _BothStores()
        path = list(range(1, 10))
        dead_end = list(range(11, 19))
        for pid in path + dead_end:
            _person(stores, pid)
        _forum(stores, 1, 1)
        for pid in path + dead_end:
            _post(stores, pid, pid, 1)
        next_id = 100
        for line in (path, [1] + dead_end):
            for a, b in zip(line, line[1:]):
                _knows(stores, a, b)
                _comment(stores, next_id, b, a)
                next_id += 1
        snap = stores.ref.begin_read()
        read = []
        weighted_friends = snap.weighted_friends
        snap.weighted_friends = lambda pid: read.append(pid) or weighted_friends(pid)
        got = stores.ref.execute_query("CR14b", {"person1Id": 1, "person2Id": 9}, snap)
        assert got == {"path": path, "weight": 8 * 39}
        assert len(read) == len(set(read)) and set(path) <= set(read)
        assert not set(read) & set(dead_end[4:]), sorted(read)


def _hops_from(source, neighbours) -> dict[int, int]:
    """One-sided breadth-first search: hops to every reachable person."""
    hops = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for node in frontier:
            for peer in neighbours(node):
                if peer not in hops:
                    hops[peer] = hops[node] + 1
                    nxt.append(peer)
        frontier = nxt
    return hops


class TestPathsAcrossDeletes:
    def test_pinned_and_final_paths_match_one_sided_search(self, sas):
        """CR13 and CR14 at a snapshot pinned before the stream and at its
        end, against a one-sided search at the same version, and CR14's
        whole answer against NaiveStore's.  Pairs come at every distance
        either snapshot has, plus disconnected ones."""
        deleted = [op.payload for op in sas.stream if op.op_type in ("DEL1", "DEL8")]
        assert {op.op_type for op in sas.stream} >= {"DEL1", "DEL8"}
        store, naive = ReferenceStore(), NaiveStore()
        store.bulk_load(sas.snapshot)
        naive.bulk_load(sas.snapshot)
        pinned = store.begin_read()
        oracle = {pinned: naive.begin_read()}
        for op in sas.stream:
            store.execute_update(op)
            naive.execute_update(op)
        final = store.begin_read()
        oracle[final] = naive.begin_read()

        def interacting(snap):
            return lambda node: [peer for peer in snap.friend_ids(node)
                                 if snap.interaction_count(node, peer) >= 1]

        alive = {snap: set(store.state_at(snap.version)["persons"]) for snap in (pinned, final)}
        both = sorted(alive[pinned] & alive[final])
        rng = random.Random(5)
        sources = rng.sample(both, 8) + rng.sample(
            [p for p in both if interacting(pinned)(p)], 4)
        sources += [pid for payload in deleted for pid in payload.values()]
        searches = {snap: (alive[snap], {
            source: (_hops_from(source, snap.friend_ids), _hops_from(source, interacting(snap)))
            for source in sources if source in alive[snap]}) for snap in (pinned, final)}
        pairs = set()
        for living, by_source in searches.values():
            for source, (hops, reach) in by_source.items():
                nearest = {}
                for person in sorted(hops):
                    nearest.setdefault(hops[person], person)
                apart = sorted(living - set(hops))[:3]
                pairs.update((source, t) for t in [*nearest.values(), *apart, *sorted(reach)[-3:]])

        answers = {}
        for snap, (living, by_source) in searches.items():
            lengths, paths = set(), 0
            for source, target in sorted(pairs):
                pair = {"person1Id": source, "person2Id": target}
                hops, reach = by_source.get(source, ({}, {}))
                live = source in living and target in living
                length = store.execute_query("CR13b", pair, snap)["shortestPathLength"]
                assert length == (hops.get(target, -1) if live else -1), pair
                path = store.execute_query("CR14b", pair, snap)
                assert (path is not None) == (live and target in reach), pair
                assert path == naive.execute_query("CR14b", pair, oracle[snap]), pair
                answers[snap, source, target] = length, path is None
                lengths.add(length)
                paths += path is not None and len(path["path"]) > 2
            assert {-1, 0, 1, 2, 3, 4, 5} <= lengths and paths
        # The stream changes some answers, so a search that reads the
        # live version at the pinned snapshot cannot pass.
        assert any(answers[pinned, s, t] != answers[final, s, t] for s, t in pairs)


def _assert_timelines_sound(store):
    """Each creator's timeline holds exactly that creator's message
    records, in creation order, and is the list the cascade index reads."""
    by_creator = {}
    for rec in store._tables["messages"].values():
        by_creator.setdefault(rec.value.creator_person_id, set()).add(id(rec))
    assert store._timelines.keys() == by_creator.keys()
    for creator, (times, records) in store._timelines.items():
        assert times == [rec.value.lifecycle.creation for rec in records], creator
        assert times == sorted(times), creator
        assert len(records) == len(by_creator[creator]), creator
        assert {id(rec) for rec in records} == by_creator[creator], creator
        assert store._messages_by_creator[creator] is records, creator


def _timeline_world():
    """Person 1 knows 2 and 3; 2 knows 4.  Persons 2 and 4 write from
    countries 5 and 6; 3 lives in country 5."""
    stores = _BothStores()
    for pid, country in [(1, 1), (2, 2), (3, 5), (4, 3)]:
        _person(stores, pid, country)
    for a, b in [(1, 2), (1, 3), (2, 4)]:
        _knows(stores, a, b)
    _forum(stores, 100, 1)
    _post(stores, 200, 1, 100, country=1)
    return stores


class TestCreatorTimeline:
    @staticmethod
    def _message(stores, mid, creator, t, country):
        _op(stores, "INS7", {"id": mid, "creatorPersonId": creator,
                             "replyToMessageId": 200, "countryId": country,
                             "tagIds": []}, t=t)

    def _answers(self, stores, ref_snap=None, naive_snap=None):
        """CR3 over windows that cut the messages every way, and SR2 of
        each person, from both stores; they must agree."""
        out = []
        for start in range(T0, T0 + 16 * MS_PER_DAY, MS_PER_DAY // 2):
            for days in (1, 3, 30):
                params = {"personId": 1, "countryXId": 5, "countryYId": 6,
                          "startDate": start, "durationDays": days}
                out.append(stores.ref.execute_query("CR3a", params, ref_snap))
                assert out[-1] == stores.naive.execute_query("CR3a", params, naive_snap), params
        for pid in (1, 2, 3, 4):
            out.append(stores.ref.execute_query("SR2", {"personId": pid}, ref_snap))
            assert out[-1] == stores.naive.execute_query(
                "SR2", {"personId": pid}, naive_snap), pid
        return out

    def test_newest_first_inserts(self):
        """Two writers can commit one creator's independent inserts either
        way round: here every one comes before a newer one already in."""
        stores = _timeline_world()
        mid = 1_000
        for creator in (2, 4):
            for i in range(14):
                t = T0 + (14 - i) * MS_PER_DAY + (i % 3) * 1000  # some ties at a day
                self._message(stores, mid, creator, t, 5 if i % 2 else 6)
                mid += 1
            self._message(stores, mid, creator, T0 + 7 * MS_PER_DAY, 5)  # equal to one in
            mid += 1
        _assert_timelines_sound(stores.ref)
        answers = self._answers(stores)
        assert any(len(rows) == 2 for rows in answers[:-4])
        assert [len(rows) for rows in answers[-4:]] == [1, 10, 0, 10]

    def test_pinned_snapshot_keeps_its_answer_across_an_older_insert(self):
        stores = _timeline_world()
        for i, creator in enumerate((2, 2, 2, 4, 4, 4)):
            self._message(stores, 1_000 + i, creator, T0 + (i + 2) * MS_PER_DAY,
                          5 if i % 2 else 6)
        ref_snap, naive_snap = stores.ref.begin_read(), stores.naive.begin_read()
        before = self._answers(stores, ref_snap, naive_snap)
        old_times, old_records = old = stores.ref._timelines[2]
        lengths = len(old_times), len(old_records)
        for i, creator in enumerate((2, 4)):
            self._message(stores, 2_000 + i, creator, T0 + MS_PER_DAY + 1, 5 + i)
        # Copy-on-write: the creator has a new pair, and the old one is as
        # it was for any reader still walking it.
        assert stores.ref._timelines[2] is not old
        assert (len(old_times), len(old_records)) == lengths
        _assert_timelines_sound(stores.ref)
        assert self._answers(stores, ref_snap, naive_snap) == before
        assert self._answers(stores) != before

    def test_cr3_window_edges(self):
        stores = _timeline_world()
        start = T0 + 3 * MS_PER_DAY
        end = start + 2 * MS_PER_DAY
        for mid, t, country in [(1_000, start, 5), (1_001, end, 6),
                                (1_002, end - 1, 6), (1_003, start + 1, 6)]:
            self._message(stores, mid, 2, t, country)
        params = {"personId": 1, "countryXId": 5, "countryYId": 6,
                  "startDate": start, "durationDays": 2}
        # 1_000 at startDate counts, 1_001 at startDate + durationDays
        # does not.
        assert stores.ref.execute_query("CR3a", params) == [
            {"personId": 2, "xCount": 1, "yCount": 2, "totalCount": 3}]
        _op(stores, "DEL7", {"messageId": 1_002})
        assert stores.ref.execute_query("CR3a", params) == [
            {"personId": 2, "xCount": 1, "yCount": 1, "totalCount": 2}]
        assert stores.naive.execute_query("CR3a", params) == stores.ref.execute_query(
            "CR3a", params)
        _op(stores, "DEL7", {"messageId": 1_000})
        assert stores.ref.execute_query("CR3a", params) == []
        _assert_timelines_sound(stores.ref)

    def test_readers_racing_out_of_order_writers(self):
        """Four writers commit messages in shuffled creation order while
        two readers pin snapshots and ask CR3 and SR2.  Each answer must
        equal the one the same snapshot gives once the writers are done,
        so no reader ever walked a timeline that shifted under it.  Every
        100th insert, the writers pause until a reader has answered at the
        version they reached, so the answers span at least eleven versions
        however the machine schedules the threads."""
        stores = _timeline_world()
        store = stores.ref
        rng = random.Random(17)
        inserts = [(1_000 + i, rng.choice((2, 4)), T0 + rng.randrange(20 * MS_PER_DAY),
                    rng.choice((5, 6))) for i in range(1_200)]
        pending = enumerate(inserts)
        take = threading.Lock()
        answered = threading.Condition()
        newest = [-1]  # the newest version a reader has answered at
        queries = [("SR2", {"personId": pid}) for pid in (2, 4)] + [
            ("CR3a", {"personId": 1, "countryXId": 5, "countryYId": 6,
                      "startDate": T0 + day * MS_PER_DAY, "durationDays": 3})
            for day in range(0, 20, 4)]
        writing, done = threading.Event(), threading.Event()
        answers = []

        def writer():
            while True:
                with take:
                    index, job = next(pending, (None, None))
                    if index is None:
                        return
                    if index and index % 100 == 0:
                        reached = store.version
                        with answered:
                            if not answered.wait_for(lambda: newest[0] >= reached,
                                                     timeout=60):
                                return
                self._message(store, *job)
                writing.set()

        def reader():
            assert writing.wait(timeout=60)
            while not done.is_set():
                snap = store.begin_read()
                answers.extend((snap, variant, params, store.execute_query(variant, params, snap))
                               for variant, params in queries)
                with answered:
                    newest[0] = max(newest[0], snap.version)
                    answered.notify_all()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writers = [threading.Thread(target=writer) for _ in range(4)]
            readers = [threading.Thread(target=reader) for _ in range(2)]
            for thread in writers + readers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            done.set()
            for thread in readers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in writers + readers)
        assert store.version == stores.naive.version + len(inserts)
        _assert_timelines_sound(store)
        assert len({snap.version for snap, *_ in answers}) > 10
        for snap, variant, params, answer in answers:
            assert store.execute_query(variant, params, snap) == answer, (snap.version, params)

    def test_bulk_load_fills_timelines_in_creation_order(self, sas):
        store = ReferenceStore()
        store.bulk_load(sas.snapshot)
        _assert_timelines_sound(store)


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
        cfg = GenConfig(seed=11, num_persons=100, cutoff_fraction=0.6,
                        delete_forums_of_deleted_moderator=False)
        snapshot = split_at_cutoff(generate_temporal_graph(cfg), cfg).snapshot
        # The first forum whose moderator was retired before the cutoff.
        orphan = next(fid for fid, forum in sorted(snapshot.forums.items())
                      if forum.moderator_person_id not in snapshot.persons)
        store = store_cls(delete_forums_of_deleted_moderator=False)
        store.bulk_load(snapshot)
        assert orphan in store.state_at()["forums"]
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
        # Few knows edges carry interactions, so CR14b pairs are drawn from
        # persons that have one: their cheapest paths are not all None.
        snap = ref.begin_read()
        interacting = [p for p in persons
                       if any(snap.interaction_count(p, f) for f in snap.friend_ids(p))]
        rng, pairs = random.Random(4321), random.Random(8765)
        for i in range(60):
            queries = _random_params(rng, persons, messages)
            queries["CR14b"] = {"person1Id": pairs.choice(interacting),
                                "person2Id": pairs.choice(interacting)}
            for variant, params in queries.items():
                a = ref.execute_query(variant, params)
                b = naive.execute_query(variant, params)
                # Cheapest paths can tie; both stores break ties by the
                # same parent rule, so even the paths agree.
                assert a == b, (i, variant, params)
                if variant.startswith("CR14") and a is not None:
                    self._check_path(ref, params, a)

    @staticmethod
    def _check_path(store, params, result):
        """A returned path must run from source to target over interacting
        friend hops whose weights sum to the reported total."""
        snap = store.begin_read()
        path = result["path"]
        assert (path[0], path[-1]) == (params["person1Id"], params["person2Id"])
        total = 0
        for a, b in zip(path, path[1:]):
            assert b in snap.friend_ids(a)
            count = snap.interaction_count(a, b)
            assert count >= 1
            total += edge_weight(count)
        assert total == result["weight"]


class _AnswerLog:
    """Delegates to a store, hashing every update result and query answer."""

    def __init__(self, inner):
        self.inner, self.digest, self.entries = inner, hashlib.sha256(), 0

    def _log(self, result):
        self.digest.update(json.dumps(result, sort_keys=True).encode() + b"\n")
        self.entries += 1
        return result

    def execute_update(self, op):
        return self._log(self.inner.execute_update(op))

    def execute_query(self, variant, params, snapshot=None):
        return self._log(self.inner.execute_query(variant, params, snapshot))


class TestNaiveStore:
    def test_cr14_tie_break_follows_person1(self):
        """The oracle settles persons in the store's (distance, id) order
        and keeps a parent unless a strictly cheaper one turns up."""
        store = _two_routes_of_weight_76(NaiveStore)
        forward = store.execute_query("CR14b", {"person1Id": 31, "person2Id": 34})
        assert forward == {"path": [31, 33, 34], "weight": 76}
        backward = store.execute_query("CR14b", {"person1Id": 34, "person2Id": 31})
        assert backward == {"path": [34, 32, 31], "weight": 76}

    def test_answer_log_is_pinned(self):
        """Every answer NaiveStore gives over a cross-validated schedule of
        a dense 300-person world, pinned by hash, so a faster oracle must
        give exactly the same answers."""
        cfg = GenConfig(seed=17, num_persons=300, cutoff_fraction=0.9,
                        degree_exponent=1.7, person_deletion_rate=0.08,
                        content_scale=2.0)
        graph = generate_temporal_graph(cfg)
        sas = split_at_cutoff(graph, cfg)
        buckets = generate_parameters(graph, sas.cutoff, ParamGenOptions(seed=17),
                                      simulation_end=cfg.simulation_end)
        config = DriverConfig(pacing=False, seed=5)
        schedule = build_schedule(sas.stream, buckets, sas.cutoff, config)
        ref, naive = ReferenceStore(), _AnswerLog(NaiveStore())
        ref.bulk_load(sas.snapshot)
        naive.inner.bulk_load(sas.snapshot)
        outcome = cross_validate(ref, naive, schedule, config)
        assert outcome["diffCount"] == 0
        assert naive.entries == outcome["updates"] + outcome["queries"]
        assert naive.digest.hexdigest() == (
            "5c5b5ac1b6526887044379124677a73ef290fa0badc3f4638901a7a916db83cd")

    def test_pinned_snapshot_keeps_a_deleted_edge(self):
        store = NaiveStore()
        for pid in (1, 2, 3):
            _person(store, pid)
        _knows(store, 1, 2)
        _knows(store, 2, 3)
        path = {"person1Id": 1, "person2Id": 3}
        pinned = store.begin_read()
        _op(store, "DEL8", {"person1Id": 2, "person2Id": 3})
        assert store.execute_query("CR13", path, pinned) == {"shortestPathLength": 2}
        assert store.execute_query("CR13", path) == {"shortestPathLength": -1}

    def test_unpinned_reads_race_a_writer(self):
        cfg = GenConfig(seed=7, num_persons=300, cutoff_fraction=0.5)
        sas = split_at_cutoff(generate_temporal_graph(cfg), cfg)
        store = NaiveStore()
        store.bulk_load(sas.snapshot)
        persons = sorted(sas.snapshot.persons)
        reading, done = threading.Event(), threading.Event()
        rounds = []

        def reader():
            rng = random.Random(11)
            while not done.is_set():
                p1, p2 = rng.choice(persons), rng.choice(persons)
                store.execute_query("CR3", {"personId": p1, "countryXId": 1,
                                            "countryYId": 2, "startDate": SIM_START,
                                            "durationDays": 1000})
                store.execute_query("CR13", {"person1Id": p1, "person2Id": p2})
                store.execute_query("CR14", {"person1Id": p1, "person2Id": p2})
                rounds.append(p1)
                reading.set()

        def writer():
            try:
                assert reading.wait(timeout=60)
                for op in sas.stream:
                    store.execute_update(op)
            finally:
                done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(rounds) > 1
        assert store.version == 1 + len(sas.stream)

    def test_independent_of_the_reference_store(self, sas):
        tree = ast.parse(inspect.getsource(naive_module))
        package = naive_module.__name__.rsplit(".", 1)[0].split(".")
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                base = package[:len(package) - node.level + 1] if node.level else []
                module = ".".join(base + ([node.module] if node.module else []))
                imported |= {module} | {f"{module}.{a.name}" for a in node.names}
        assert not {m for m in imported if m.startswith("socialbench.refstore")}, imported

        store = NaiveStore()
        store.bulk_load(sas.snapshot)
        for op in sas.stream:
            store.execute_update(op)
        for variant, params in _random_params(random.Random(5),
                                              sorted(sas.snapshot.persons),
                                              sorted(sas.snapshot.messages)).items():
            store.execute_query(variant, params)
        assert set(vars(store)) == {"_state", "_lock", "_version",
                                    "delete_forums_of_deleted_moderator"}


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
        assert check_temporal_invariants(graph, False) == []
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
