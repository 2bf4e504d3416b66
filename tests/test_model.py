"""Core model: time arithmetic, lifecycles, entity shapes, invariants."""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from socialbench.errors import CycleDetected, MalformedOperation
from socialbench.model import (
    COMMENT,
    COUNTRIES,
    COUNTRIES_BY_ID,
    POST,
    TAGS,
    UNIVERSITIES,
    UNIVERSITIES_BY_COUNTRY,
    Forum,
    KnowsEdge,
    Lifecycle,
    Message,
    TemporalGraph,
    UpdateOperation,
    check_temporal_invariants,
    decode_insert,
    delete_target,
    key_of,
    root_post_of,
)
from socialbench.simtime import (
    MS_PER_DAY,
    SIM_END,
    SIM_START,
    day_date,
    day_start,
    day_starts_between,
    format_instant,
    parse_day,
    parse_instant,
)


class TestSimTime:
    def test_window_bounds(self):
        assert format_instant(SIM_START) == "2010-01-01T00:00:00.000Z"
        assert format_instant(SIM_END) == "2012-12-31T23:59:59.999Z"

    def test_parse_inverts_format(self):
        assert parse_instant("2010-01-01T00:00:00.000Z") == SIM_START
        assert parse_instant(format_instant(1_300_000_123_456)) == 1_300_000_123_456

    @given(st.integers(min_value=SIM_START, max_value=SIM_END))
    def test_round_trip_over_window(self, t):
        assert parse_instant(format_instant(t)) == t

    @given(st.integers(min_value=SIM_START, max_value=SIM_END))
    def test_day_start_floors_to_midnight(self, t):
        floored = day_start(t)
        assert floored <= t < floored + MS_PER_DAY
        assert floored % MS_PER_DAY == 0

    def test_day_date_and_parse_day(self):
        assert day_date(SIM_START) == "2010-01-01"
        assert parse_day("2010-01-01") == SIM_START
        assert parse_day(day_date(1_354_147_200_000)) == 1_354_147_200_000

    def test_day_starts_between(self):
        days = day_starts_between(SIM_START, SIM_START + 3 * MS_PER_DAY - 1)
        assert days == [SIM_START + i * MS_PER_DAY for i in range(3)]
        # inclusive of the day containing the upper bound
        days = day_starts_between(SIM_START, SIM_START + 3 * MS_PER_DAY)
        assert len(days) == 4


class TestLifecycle:
    def test_half_open_interval(self):
        life = Lifecycle(creation=100, deletion=200)
        assert not life.alive_at(99)
        assert life.alive_at(100)
        assert life.alive_at(199)
        assert not life.alive_at(200)

    def test_open_ended(self):
        life = Lifecycle(creation=100)
        assert life.alive_at(10**15)

    def test_alive_throughout(self):
        life = Lifecycle(creation=100, deletion=200)
        assert life.alive_throughout(100, 200)
        assert not life.alive_throughout(99, 150)
        assert not life.alive_throughout(150, 201)

    def test_deletion_must_follow_creation(self):
        with pytest.raises(ValueError):
            Lifecycle(creation=100, deletion=100)

    @given(st.integers(0, 10**6), st.integers(1, 10**6), st.integers(0, 2 * 10**6))
    def test_alive_iff_inside_interval(self, creation, length, probe):
        life = Lifecycle(creation=creation, deletion=creation + length)
        assert life.alive_at(probe) == (creation <= probe < creation + length)


class TestEntities:
    def test_knows_edge_canonical(self):
        life = Lifecycle(creation=1)
        edge = KnowsEdge.make(9, 3, life)
        assert (edge.person1_id, edge.person2_id) == (3, 9)
        assert edge.pair == (3, 9)
        with pytest.raises(ValueError):
            KnowsEdge(person1_id=5, person2_id=5, lifecycle=life)

    def test_message_shape_enforced(self):
        life = Lifecycle(creation=1)
        with pytest.raises(ValueError):
            Message(id=1, kind=POST, creator_person_id=1, container_forum_id=None,
                    reply_to_message_id=None, country_id=1,
                    creation_tag_ids=frozenset(), lifecycle=life, root_post_id=1)
        with pytest.raises(ValueError):
            Message(id=2, kind=COMMENT, creator_person_id=1, container_forum_id=7,
                    reply_to_message_id=None, country_id=1,
                    creation_tag_ids=frozenset(), lifecycle=life, root_post_id=1)

    def test_root_post_of_walks_reply_chain(self):
        life = Lifecycle(creation=1)
        post = Message(id=1, kind=POST, creator_person_id=1, container_forum_id=1,
                       reply_to_message_id=None, country_id=1,
                       creation_tag_ids=frozenset(), lifecycle=life, root_post_id=1)
        c1 = Message(id=2, kind=COMMENT, creator_person_id=1, container_forum_id=None,
                     reply_to_message_id=1, country_id=1,
                     creation_tag_ids=frozenset(), lifecycle=life, root_post_id=1)
        c2 = Message(id=3, kind=COMMENT, creator_person_id=1, container_forum_id=None,
                     reply_to_message_id=2, country_id=1,
                     creation_tag_ids=frozenset(), lifecycle=life, root_post_id=1)
        messages = {1: post, 2: c1, 3: c2}
        assert root_post_of(3, messages) == 1
        assert root_post_of(1, messages) == 1

    def test_root_post_of_detects_cycles(self):
        life = Lifecycle(creation=1)
        a = Message(id=1, kind=COMMENT, creator_person_id=1, container_forum_id=None,
                    reply_to_message_id=2, country_id=1,
                    creation_tag_ids=frozenset(), lifecycle=life, root_post_id=None)
        b = Message(id=2, kind=COMMENT, creator_person_id=1, container_forum_id=None,
                    reply_to_message_id=1, country_id=1,
                    creation_tag_ids=frozenset(), lifecycle=life, root_post_id=None)
        with pytest.raises(CycleDetected):
            root_post_of(1, {1: a, 2: b})


class TestStaticDictionaries:
    def test_sizes(self):
        assert len(COUNTRIES) == 16
        assert len(UNIVERSITIES) == 23
        assert len(TAGS) == 24

    def test_every_country_resolvable(self):
        for country in COUNTRIES:
            assert COUNTRIES_BY_ID[country.id] is country
            assert len(country.first_names) == 6
            assert len(country.last_names) == 6

    def test_universities_grouped_by_country(self):
        for country_id, unis in UNIVERSITIES_BY_COUNTRY.items():
            assert country_id in COUNTRIES_BY_ID
            for uni in unis:
                assert uni.country_id == country_id


class TestGraphInvariants:
    def test_empty_graph(self):
        graph = TemporalGraph()
        assert graph.entity_count() == 0
        assert check_temporal_invariants(graph) == []
        assert set(graph.counts()) == {"persons", "knows", "forums", "messages",
                                       "likes", "members"}

    def test_generated_graph_holds_invariants(self, graph):
        assert check_temporal_invariants(graph) == []

    def test_lifecycle_containment_violation_detected(self, graph):
        # Clone one forum with a creation before its moderator existed.
        target = next(iter(graph.forums.values()))
        moderator = graph.persons[target.moderator_person_id]
        bad = Forum(id=max(graph.forums) + 1,
                    moderator_person_id=target.moderator_person_id,
                    lifecycle=Lifecycle(creation=moderator.lifecycle.creation - 1))
        mutated = TemporalGraph(persons=graph.persons,
                                knows=graph.knows,
                                forums={**graph.forums, bad.id: bad},
                                messages=graph.messages,
                                likes=graph.likes,
                                members=graph.members)
        problems = check_temporal_invariants(mutated)
        assert any(str(bad.id) in p for p in problems)


class TestCodec:
    def test_stream_decodes_to_the_generated_entities(self, graph, sas):
        for op in sas.stream:
            if not op.is_insert:
                collection, key = delete_target(op)
                assert getattr(graph, collection)[key].lifecycle.deletion == op.scheduled_time
                continue
            collection, entity = decode_insert(op)
            expected = getattr(graph, collection)[key_of(collection, entity)]
            expected = replace(expected, lifecycle=Lifecycle(expected.lifecycle.creation))
            if collection == "messages" and entity.kind == COMMENT:
                expected = replace(expected, root_post_id=None)  # not on the wire
            assert entity == expected

    @pytest.mark.parametrize("op_type,payload", [
        ("INS1", {"id": 1, "firstName": "A"}),
        ("INS8", {"person1Id": 2, "person2Id": 2}),
        ("INS6", {"id": 5, "creatorPersonId": 1, "containerForumId": None,
                  "countryId": 1, "tagIds": []}),
        ("INS2", ["personId", "messageId"]),
        ("DEL5", {"forumId": 1}),
    ])
    def test_malformed_payload_is_rejected(self, op_type, payload):
        op = UpdateOperation(op_type, SIM_START, SIM_START, payload)
        with pytest.raises(MalformedOperation):
            decode_insert(op) if op.is_insert else delete_target(op)
