"""Generator, cutoff split, and serialization tests.

The replay oracle here is deliberately independent of the runtime stores:
it interprets the update stream over plain dict state and must land on
exactly the entities the temporal graph says are alive at the end of the
simulation window.
"""

import filecmp
import json
import math
import statistics
from collections import Counter

import pytest

from socialbench.datagen import (
    GenConfig,
    cutoff_instant,
    generate_temporal_graph,
    read_dataset,
    read_stream,
    split_at_cutoff,
    write_dataset,
    write_stream,
)
from socialbench.errors import ConfigInvalid, ParseError
from socialbench.model import (
    COUNTRIES,
    DELETE_OPS,
    INSERT_OPS,
    TAGS,
    UNIVERSITIES,
    check_temporal_invariants,
)
from socialbench.simtime import MS_PER_HOUR, SIM_END, parse_day


class TestConfig:
    def test_defaults_are_valid(self):
        GenConfig(seed=0, num_persons=10).validate()

    @pytest.mark.parametrize("field,value", [
        ("num_persons", -1),
        ("cutoff_fraction", 0.0),
        ("cutoff_fraction", 1.5),
        ("t_safe", 0),
        ("degree_exponent", 1.0),
        ("homophily_weight", -0.1),
        ("person_deletion_rate", 1.1),
        ("flashmob_count", -2),
        ("content_scale", 0.0),
    ])
    def test_rejects_bad_field(self, field, value):
        kwargs = {"seed": 0, "num_persons": 10}
        kwargs[field] = value
        cfg = GenConfig(**kwargs)
        with pytest.raises(ConfigInvalid) as err:
            cfg.validate()
        assert field in str(err.value)

    def test_dict_round_trip(self):
        cfg = GenConfig(seed=99, num_persons=42, cutoff_fraction=0.5,
                        homophily_weight=0.25, flashmob_count=5)
        assert GenConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("data,named", [
        ({"seed": 1, "num_persons": 5, "num_person": 5}, "num_person"),
        ({"seed": 1}, "num_persons"),
    ])
    def test_from_dict_names_unknown_or_missing_key(self, data, named):
        with pytest.raises(ConfigInvalid) as err:
            GenConfig.from_dict(data)
        assert err.value.field == f"datagen.{named}"


class TestGeneration:
    def test_zero_persons_means_empty_graph(self):
        graph = generate_temporal_graph(GenConfig(seed=4, num_persons=0))
        assert graph.entity_count() == 0

    def test_same_seed_same_graph(self):
        cfg = GenConfig(seed=321, num_persons=120)
        assert generate_temporal_graph(cfg) == generate_temporal_graph(cfg)

    def test_different_seed_different_graph(self):
        a = generate_temporal_graph(GenConfig(seed=1, num_persons=120))
        b = generate_temporal_graph(GenConfig(seed=2, num_persons=120))
        assert a != b

    def test_invariants_hold(self, graph):
        assert check_temporal_invariants(graph) == []

    def test_attribute_values_come_from_dictionaries(self, graph):
        country_ids = {c.id for c in COUNTRIES}
        university_ids = {u.id for u in UNIVERSITIES}
        tag_ids = {t.id for t in TAGS}
        for person in graph.persons.values():
            assert person.country_id in country_ids
            if person.university_id is not None:
                assert person.university_id in university_ids
            assert set(person.tag_interests) <= tag_ids
        for message in graph.messages.values():
            assert message.country_id in country_ids
            assert set(message.creation_tag_ids) <= tag_ids

    def test_degree_distribution_slope(self):
        """Log-log least squares on the degree CCDF.  For a power law with
        exponent a the CCDF slope is 1 - a, so the recovered exponent must
        sit within 0.3 of the configured 2.5."""
        for seed in (1, 2, 3):
            g = generate_temporal_graph(GenConfig(seed=seed, num_persons=1000))
            deg = Counter()
            for a, b in g.knows:
                deg[a] += 1
                deg[b] += 1
            values = sorted(v for v in deg.values() if v >= 1)
            n = len(values)
            points = []
            for x in sorted(set(values)):
                tail = sum(1 for v in values if v >= x) / n
                points.append((math.log(x), math.log(tail)))
            mean_x = statistics.fmean(p[0] for p in points)
            mean_y = statistics.fmean(p[1] for p in points)
            slope = (sum((x - mean_x) * (y - mean_y) for x, y in points)
                     / sum((x - mean_x) ** 2 for x, y in points))
            recovered = 1.0 - slope
            assert abs(recovered - 2.5) <= 0.3, f"seed {seed}: {recovered:.3f}"

    def test_homophily_raises_same_country_fraction(self):
        def fraction(weight):
            g = generate_temporal_graph(
                GenConfig(seed=7, num_persons=400, homophily_weight=weight))
            same = sum(1 for a, b in g.knows
                       if g.persons[a].country_id == g.persons[b].country_id)
            return same / len(g.knows)

        low, high = fraction(0.0), fraction(0.8)
        assert high > low + 0.2, (low, high)

    def test_flashmobs_create_topic_bursts(self):
        """A flashmob concentrates many same-tag messages into a short
        window; without flashmobs no tag shows a comparable burst."""
        def max_burst(flashmob_count):
            g = generate_temporal_graph(GenConfig(
                seed=20260819, num_persons=500, flashmob_count=flashmob_count))
            per_tag = {}
            for m in g.messages.values():
                for tag in m.creation_tag_ids:
                    per_tag.setdefault(tag, []).append(m.lifecycle.creation)
            best = 0
            for times in per_tag.values():
                times.sort()
                j = 0
                for i, start in enumerate(times):
                    j = max(j, i)
                    while j < len(times) and times[j] <= start + 2 * MS_PER_HOUR:
                        j += 1
                    best = max(best, j - i)
            return best

        assert max_burst(2) >= 8
        assert max_burst(0) <= 4


class TestSplit:
    def test_cutoff_is_day_aligned(self, gen_config, cutoff):
        assert cutoff == cutoff_instant(gen_config)
        assert cutoff == parse_day("2012-11-29")

    def test_conservation(self, graph, sas):
        counts = sas.partition_counts()
        inserted_entities = sum(1 for op in sas.stream if op.is_insert)
        assert (counts["snapshot"] + inserted_entities + counts["retired"]
                == graph.entity_count())

    def test_partition_is_disjoint_and_exhaustive(self, graph, sas, cutoff):
        for kind in ("persons", "knows", "forums", "messages", "likes", "members"):
            coll = getattr(graph, kind)
            snap_keys = set(getattr(sas.snapshot, kind))
            for ident, entity in coll.items():
                lc = entity.lifecycle
                retired = lc.deletion is not None and lc.deletion < cutoff
                in_snapshot = ident in snap_keys
                in_stream = not retired and lc.creation >= cutoff
                assert retired + in_snapshot + in_stream == 1, (kind, ident)
                if in_snapshot:
                    assert lc.creation < cutoff

    def test_stream_sorted_and_inside_window(self, sas, cutoff):
        times = [op.scheduled_time for op in sas.stream]
        assert times == sorted(times)
        assert all(cutoff <= t <= SIM_END for t in times)

    def test_safety_margin_holds_everywhere(self, sas, gen_config):
        for op in sas.stream:
            gap = op.scheduled_time - op.dependency_time
            assert gap >= gen_config.t_safe, (op.op_type, gap)

    def test_delete_insert_ratio_band(self, sas):
        counts = sas.partition_counts()
        ratio = counts["deletes"] / counts["inserts"]
        assert 0.005 <= ratio <= 0.02, ratio

    def test_payload_shapes(self, sas):
        expected = {
            "INS1": {"id", "firstName", "lastName", "countryId", "universityId",
                     "tagInterests"},
            "INS2": {"personId", "messageId"},
            "INS3": {"personId", "messageId"},
            "INS4": {"id", "moderatorPersonId"},
            "INS5": {"forumId", "personId"},
            "INS6": {"id", "creatorPersonId", "containerForumId", "countryId",
                     "tagIds"},
            "INS7": {"id", "creatorPersonId", "replyToMessageId", "countryId",
                     "tagIds"},
            "INS8": {"person1Id", "person2Id"},
            "DEL1": {"personId"},
            "DEL2": {"personId", "messageId"},
            "DEL3": {"personId", "messageId"},
            "DEL4": {"forumId"},
            "DEL5": {"forumId", "personId"},
            "DEL6": {"messageId"},
            "DEL7": {"messageId"},
            "DEL8": {"person1Id", "person2Id"},
        }
        assert set(expected) == set(INSERT_OPS) | set(DELETE_OPS)
        # The fixture cutoff sits late in the window, so pool with an early
        # cutoff split to exercise every insert type and most delete types.
        cfg = GenConfig(seed=11, num_persons=300, cutoff_fraction=0.5)
        dense = split_at_cutoff(generate_temporal_graph(cfg), cfg)
        seen = set()
        for op in sas.stream + dense.stream:
            seen.add(op.op_type)
            assert set(op.payload) == expected[op.op_type], op.op_type
        assert set(INSERT_OPS) <= seen
        assert len(seen & set(DELETE_OPS)) >= 5

    def test_insert_dependency_never_precedes_referenced_creation(self, graph, sas):
        for op in sas.stream:
            p = op.payload
            if op.op_type == "INS7":
                dep_floor = max(graph.persons[p["creatorPersonId"]].lifecycle.creation,
                                graph.messages[p["replyToMessageId"]].lifecycle.creation)
            elif op.op_type == "INS6":
                dep_floor = max(graph.persons[p["creatorPersonId"]].lifecycle.creation,
                                graph.forums[p["containerForumId"]].lifecycle.creation)
            elif op.op_type in ("INS2", "INS3"):
                dep_floor = max(graph.persons[p["personId"]].lifecycle.creation,
                                graph.messages[p["messageId"]].lifecycle.creation)
            else:
                continue
            assert op.dependency_time >= dep_floor, op.op_type


class _ReplayState:
    """Pure dict interpreter for snapshot + stream, used as an oracle."""

    def __init__(self, snapshot, cascade_moderated_forums):
        self.cascade_moderated = cascade_moderated_forums
        self.persons = set(snapshot.persons)
        self.knows = set(snapshot.knows)
        self.forums = {f.id: f.moderator_person_id for f in snapshot.forums.values()}
        self.members = set(snapshot.members)
        self.likes = set(snapshot.likes)
        # message id -> (creator, parent message or None, forum or None)
        self.messages = {
            m.id: (m.creator_person_id, m.reply_to_message_id, m.container_forum_id)
            for m in snapshot.messages.values()}

    def apply(self, op):
        p = op.payload
        handler = {
            "INS1": lambda: self.persons.add(p["id"]),
            "INS2": lambda: self.likes.add((p["personId"], p["messageId"])),
            "INS3": lambda: self.likes.add((p["personId"], p["messageId"])),
            "INS4": lambda: self.forums.__setitem__(p["id"], p["moderatorPersonId"]),
            "INS5": lambda: self.members.add((p["forumId"], p["personId"])),
            "INS6": lambda: self.messages.__setitem__(
                p["id"], (p["creatorPersonId"], None, p["containerForumId"])),
            "INS7": lambda: self.messages.__setitem__(
                p["id"], (p["creatorPersonId"], p["replyToMessageId"], None)),
            "INS8": lambda: self.knows.add(tuple(sorted((p["person1Id"], p["person2Id"])))),
            "DEL1": lambda: self._del_person(p["personId"]),
            "DEL2": lambda: self.likes.discard((p["personId"], p["messageId"])),
            "DEL3": lambda: self.likes.discard((p["personId"], p["messageId"])),
            "DEL4": lambda: self._del_forum(p["forumId"]),
            "DEL5": lambda: self.members.discard((p["forumId"], p["personId"])),
            "DEL6": lambda: self._del_message(p["messageId"]),
            "DEL7": lambda: self._del_message(p["messageId"]),
            "DEL8": lambda: self.knows.discard(tuple(sorted((p["person1Id"], p["person2Id"])))),
        }[op.op_type]
        handler()

    def _del_person(self, pid):
        self.persons.discard(pid)
        self.knows = {k for k in self.knows if pid not in k}
        self.likes = {l for l in self.likes if l[0] != pid}
        self.members = {m for m in self.members if m[1] != pid}
        for mid, (creator, _, _) in list(self.messages.items()):
            if creator == pid and mid in self.messages:
                self._del_message(mid)
        if self.cascade_moderated:
            for fid, moderator in list(self.forums.items()):
                if moderator == pid and fid in self.forums:
                    self._del_forum(fid)

    def _del_forum(self, fid):
        if fid not in self.forums:
            return
        del self.forums[fid]
        self.members = {m for m in self.members if m[0] != fid}
        for mid, (_, _, forum) in list(self.messages.items()):
            if forum == fid and mid in self.messages:
                self._del_message(mid)

    def _del_message(self, mid):
        if mid not in self.messages:
            return
        del self.messages[mid]
        self.likes = {l for l in self.likes if l[1] != mid}
        for child, (_, parent, _) in list(self.messages.items()):
            if parent == mid and child in self.messages:
                self._del_message(child)


class TestReplayOracle:
    def test_stream_replay_reaches_end_state(self, graph, sas, gen_config):
        state = _ReplayState(sas.snapshot,
                             gen_config.delete_forums_of_deleted_moderator)
        for op in sas.stream:
            state.apply(op)

        def live(kind):
            return {ident for ident, e in getattr(graph, kind).items()
                    if e.lifecycle.alive_at(SIM_END)}

        assert state.persons == live("persons")
        assert state.knows == live("knows")
        assert set(state.forums) == live("forums")
        assert set(state.messages) == live("messages")
        assert state.likes == live("likes")
        assert state.members == live("members")


class TestSerialization:
    def test_dataset_round_trip(self, graph, sas, gen_config, tmp_path):
        write_dataset(graph, sas, gen_config, tmp_path / "out")
        graph2, sas2, config2 = read_dataset(tmp_path / "out")
        assert config2 == gen_config
        assert graph2 == graph
        assert sas2.cutoff == sas.cutoff
        assert sas2.retired == sas.retired
        assert sas2.stream == sas.stream
        assert sas2.snapshot == sas.snapshot

    def test_generation_is_byte_deterministic(self, tmp_path):
        cfg = GenConfig(seed=55, num_persons=150)
        for name in ("a", "b"):
            g = generate_temporal_graph(cfg)
            write_dataset(g, split_at_cutoff(g, cfg), cfg, tmp_path / name)
        mismatch = []
        for sub in ("", "snapshot", "temporal"):
            left = tmp_path / "a" / sub
            right = tmp_path / "b" / sub
            common = [p.name for p in left.iterdir() if p.is_file()]
            _, bad, err = filecmp.cmpfiles(left, right, common, shallow=False)
            mismatch += bad + err
        assert mismatch == []

    def test_stream_round_trip(self, sas, tmp_path):
        path = tmp_path / "stream.ldjson"
        write_stream(sas.stream, path)
        assert read_stream(path) == sas.stream

    def test_stream_parse_error_carries_line_number(self, sas, tmp_path):
        path = tmp_path / "stream.ldjson"
        write_stream(sas.stream[:5], path)
        lines = path.read_text().splitlines()
        lines[2] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_stream(path)
        assert err.value.line_no == 3
        assert str(path) in str(err.value)

    def test_stream_payload_missing_a_key_is_a_parse_error(self, sas, tmp_path):
        path = tmp_path / "stream.ldjson"
        write_stream(sas.stream[:5], path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["payload"].popitem()
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_stream(path)
        assert err.value.line_no == 2

    def test_csv_header_mismatch_is_reported(self, graph, sas, gen_config, tmp_path):
        write_dataset(graph, sas, gen_config, tmp_path / "out")
        victim = tmp_path / "out" / "snapshot" / "persons.csv"
        body = victim.read_text().splitlines()
        body[0] = "id,wrong,header"
        victim.write_text("\n".join(body) + "\n")
        with pytest.raises(ParseError) as err:
            read_dataset(tmp_path / "out")
        assert err.value.line_no == 1

    def test_csv_bad_row_reports_its_line(self, graph, sas, gen_config, tmp_path):
        for victim, column, value in (("snapshot/persons.csv", -1, "not-a-date"),
                                      ("snapshot/messages.csv", 2, "x"),
                                      ("temporal/messages.csv", 2, "x")):
            out = tmp_path / victim.replace("/", "-")
            write_dataset(graph, sas, gen_config, out)
            path = out / victim
            body = path.read_text().splitlines()
            row = body[3].split(",")
            row[column] = value
            body[3] = ",".join(row)
            path.write_text("\n".join(body) + "\n")
            with pytest.raises(ParseError) as err:
                read_dataset(out)
            assert err.value.line_no == 4, victim
            assert str(path) in str(err.value)
