"""Generator, cutoff split, and serialization tests.

The replay oracle here is deliberately independent of the runtime stores:
it interprets the update stream over plain dict state and must land on
exactly the entities the temporal graph says are alive at the end of the
simulation window.
"""

import csv
import filecmp
import hashlib
import json
import logging
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from socialbench.datagen import (
    GenConfig,
    cutoff_instant,
    generate_temporal_graph,
    read_dataset,
    split_at_cutoff,
    write_dataset,
)
from socialbench.cli import main
from socialbench.datagen.generator import _poisson, _zipf
from socialbench.errors import ConfigInvalid, ParseError, SocialBenchError, load_config
from socialbench.paramgen import ParamGenOptions, generate_parameters, read_buckets, write_buckets
from socialbench.model import (
    COLLECTIONS,
    COUNTRIES,
    DELETE_OPS,
    INSERT_OPS,
    TAGS,
    UNIVERSITIES,
    check_temporal_invariants,
)
from socialbench.simtime import MS_PER_DAY, MS_PER_HOUR, SIM_END, format_instant, parse_day


class TestConfig:
    def test_defaults_are_valid(self):
        GenConfig(seed=0, num_persons=10)

    @pytest.mark.parametrize("field,value", [
        ("num_persons", -1),
        ("cutoff_fraction", 0.0),
        ("cutoff_fraction", 1.5),
        ("t_safe", 0),
        ("degree_exponent", 1.0),
        ("degree_exponent", math.nan),
        ("homophily_weight", -0.1),
        ("person_deletion_rate", 1.1),
        ("flashmob_count", -2),
        ("content_scale", 0.0),
        ("content_scale", math.inf),
        ("content_scale", math.nan),
    ])
    def test_rejects_bad_field(self, field, value):
        """Built directly or by replace, which builds it the same way."""
        kwargs = {"seed": 0, "num_persons": 10}
        with pytest.raises(ConfigInvalid) as err:
            GenConfig(**{**kwargs, field: value})
        assert field in str(err.value)
        with pytest.raises(ConfigInvalid) as err:
            replace(GenConfig(**kwargs), **{field: value})
        assert field in str(err.value)

    def test_dict_round_trip(self):
        cfg = GenConfig(seed=99, num_persons=42, cutoff_fraction=0.5,
                        homophily_weight=0.25, flashmob_count=5)
        assert load_config(GenConfig, asdict(cfg), "datagen") == cfg

    @pytest.mark.parametrize("data,named", [
        ({"seed": 1, "num_persons": 5, "num_person": 5}, "num_person"),
        ({"seed": 1}, "num_persons"),
    ])
    def test_from_dict_names_unknown_or_missing_key(self, data, named):
        with pytest.raises(ConfigInvalid) as err:
            load_config(GenConfig, data, "datagen")
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

    def test_invariants_hold(self, graph, gen_config):
        flag = gen_config.delete_forums_of_deleted_moderator
        assert check_temporal_invariants(graph, flag) == []

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


class TestProgressLog:
    def test_generate_and_split_log_their_progress(self, caplog):
        cfg = GenConfig(seed=9, num_persons=60)
        with caplog.at_level(logging.DEBUG, logger="socialbench.datagen"):
            graph = generate_temporal_graph(cfg)
            sas = split_at_cutoff(graph, cfg)
        records = [r for r in caplog.records if r.name == "socialbench.datagen.generator"]
        stages = [r.getMessage().split()[1] for r in records if r.levelno == logging.DEBUG]
        assert stages == ["persons", "knows", "forums", "members", "threads", "likes",
                          "flashmobs"]
        done = [r.getMessage() for r in records if r.levelno == logging.INFO]
        assert len(done) == 1
        for collection in COLLECTIONS:
            assert f"{len(getattr(graph, collection))} {collection}" in done[0]
        split = [r.getMessage() for r in caplog.records
                 if r.name == "socialbench.datagen.split"]
        counts = sas.partition_counts()
        assert len(split) == 1
        assert (f"{counts['snapshot']} snapshot, {counts['inserts']} inserts, "
                f"{counts['deletes']} deletes, {counts['retired']} retired") in split[0]

    def test_nothing_is_logged_at_warning(self, caplog):
        cfg = GenConfig(seed=9, num_persons=60)
        with caplog.at_level(logging.WARNING, logger="socialbench.datagen"):
            split_at_cutoff(generate_temporal_graph(cfg), cfg)
        assert caplog.records == []


class TestSamplers:
    """The generator's own Poisson and Zipf samplers match their
    distributions, within three standard errors at a fixed seed."""

    @pytest.mark.parametrize("lam,draws", [(0.4, 20_000), (1.5, 20_000), (40, 5_000),
                                           (1200, 2_000)])
    def test_poisson_mean_and_variance(self, lam, draws):
        """1200 takes three slices of at most 500."""
        rng = random.Random(5)
        counts = [_poisson(rng, lam) for _ in range(draws)]
        mean, var = statistics.fmean(counts), statistics.variance(counts)
        assert abs(mean - lam) <= 3 * math.sqrt(lam / draws), mean
        # The sample variance of a Poisson has variance (lam + 2 lam**2) / n.
        assert abs(var - lam) <= 3 * math.sqrt((lam + 2 * lam**2) / draws), var

    @pytest.mark.parametrize("a", [1.7, 2.5])
    def test_zipf_frequencies(self, a):
        draws = 20_000
        rng = random.Random(5)
        counts = Counter(_zipf(rng, a) for _ in range(draws))
        # zeta(a): the sum to n, and the Euler-Maclaurin tail past it.
        n = 1000
        zeta = sum(k**-a for k in range(1, n + 1)) + n ** (1 - a) / (a - 1) - n**-a / 2
        for k in (1, 2, 3):
            p = k**-a / zeta
            assert abs(counts[k] / draws - p) <= 3 * math.sqrt(p * (1 - p) / draws), (k, counts)

    def test_zipf_of_a_huge_exponent_is_one(self):
        assert _zipf(random.Random(5), 2000.0) == 1


def test_no_numpy_in_the_pipeline():
    """Generating, splitting and curating a world imports no numpy."""
    script = (
        "import sys\n"
        "from socialbench.datagen import GenConfig, cutoff_instant, generate_temporal_graph, "
        "split_at_cutoff\n"
        "from socialbench.paramgen import ParamGenOptions, generate_parameters\n"
        "cfg = GenConfig(seed=3, num_persons=60)\n"
        "graph = generate_temporal_graph(cfg)\n"
        "assert split_at_cutoff(graph, cfg).stream\n"
        "assert generate_parameters(graph, cutoff_instant(cfg), ParamGenOptions())\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert result.returncode == 0, result.stderr


@pytest.fixture(scope="module")
def early_sas():
    """The split of a world cut at mid-window, whose stream holds every
    insert type and, unlike the shared late-cutoff one, several runs of
    same-instant operations of one op code."""
    cfg = GenConfig(seed=11, num_persons=300, cutoff_fraction=0.5)
    return split_at_cutoff(generate_temporal_graph(cfg), cfg)


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

    def test_payload_shapes(self, sas, early_sas):
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
        seen = set()
        for op in sas.stream + early_sas.stream:
            seen.add(op.op_type)
            assert set(op.payload) == expected[op.op_type], op.op_type
        assert set(INSERT_OPS) <= seen
        assert len(seen & set(DELETE_OPS)) >= 5

    def test_same_instant_ops_of_one_code_go_in_payload_order(self, early_sas):
        runs = Counter((op.scheduled_time, op.op_type) for op in early_sas.stream)
        assert max(runs.values()) >= 2
        assert early_sas.stream == sorted(early_sas.stream, key=lambda op: (
            op.scheduled_time, not op.is_insert, op.op_type,
            json.dumps(op.payload, sort_keys=True)))

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


def _not_json(lines):
    lines[2] = "{not json\n"
    return 3


def _payload_missing_a_key(lines):
    record = json.loads(lines[1])
    record["payload"].popitem()
    lines[1] = json.dumps(record) + "\n"
    return 2


def _going_back_in_time(lines):
    """The driver's clock releases on the next pending instant, so a
    stream whose instants do not ascend is not the split's."""
    instant = json.loads(lines[0])["scheduledTime"]
    later = next(i for i, line in enumerate(lines)
                 if json.loads(line)["scheduledTime"] > instant)
    lines[0], lines[later] = lines[later], lines[0]
    return 1


def _depends_on_itself(lines):
    """The driver's gate would hold such a line until it committed
    itself."""
    record = json.loads(lines[1])
    record["dependencyTime"] = record["scheduledTime"]
    lines[1] = json.dumps(record, sort_keys=True) + "\n"
    return 2


def _rows(path):
    return list(csv.reader(path.read_text().splitlines()))


def _write_rows(path, rows):
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _repeat_a_person(dataset, graph):
    """A row that repeats a key, which would replace the row above it."""
    path = dataset / "temporal" / "persons.csv"
    rows = _rows(path)
    copy = list(rows[1])
    copy[rows[0].index("firstName")] = "Other"
    _write_rows(path, rows + [copy])
    return path, len(rows) + 1


def _drop_a_knows_endpoint(dataset, graph):
    """The row of a person that the first knows row names goes."""
    person = _rows(dataset / "temporal" / "knows.csv")[1][0]
    path = dataset / "temporal" / "persons.csv"
    rows = _rows(path)
    line_no = next(n for n, row in enumerate(rows, start=1) if row[0] == person)
    _write_rows(path, rows[:line_no - 1] + rows[line_no:])
    return path, line_no


def _root_past_the_chain_end(dataset, graph):
    """Comment 2 replies within post 1's thread but names post 3."""
    path = dataset / "temporal" / "messages.csv"
    rows = _rows(path)
    root = rows[0].index("rootPostId")
    line_no, row = next((n, row) for n, row in enumerate(rows, start=1) if row[0] == "2")
    assert (row[1], row[root]) == ("Comment", "1")
    row[root] = "3"
    _write_rows(path, rows)
    return path, line_no


def _backdate_a_knows_edge(dataset, graph):
    """The first knows edge is made a day before its younger endpoint."""
    path = dataset / "temporal" / "knows.csv"
    rows = _rows(path)
    younger = max(map(int, rows[1][:2]),
                  key=lambda person: graph.persons[person].lifecycle.creation)
    rows[1][rows[0].index("creationDate")] = format_instant(
        graph.persons[younger].lifecycle.creation - MS_PER_DAY)
    _write_rows(path, rows)
    return path, 2


def _keep_a_forum_past_its_moderator(dataset, graph):
    """A forum deleted with its moderator is kept open."""
    forum = next(f for f in graph.forums.values()
                 if graph.persons[f.moderator_person_id].lifecycle.deletion is not None)
    path = dataset / "temporal" / "forums.csv"
    rows = _rows(path)
    line_no = sorted(graph.forums).index(forum.id) + 2  # rows follow the header
    assert rows[line_no - 1][0] == str(forum.id)
    rows[line_no - 1][rows[0].index("deletionDate")] = ""
    _write_rows(path, rows)
    return path, line_no


def _drop_the_last_like(dataset, graph):
    """The last like goes: a leaf, which no other row names."""
    path = dataset / "temporal" / "likes.csv"
    rows = _rows(path)
    _write_rows(path, rows[:-1])
    return path, len(rows)


def _edit_config(dataset, **changes):
    path = dataset / "config.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **changes}))


def _another_seed_and_exponent(dataset, graph):
    """config.json names another world than the files beside it; this
    loaded while the history was read as written."""
    _edit_config(dataset, seed=10, degree_exponent=1.7)
    return dataset / "temporal" / "persons.csv", 2


def _delete_forums_of_deleted_moderators(dataset, graph):
    """config.json now says deleting a person deletes their forums, so
    the world it names first differs at the first forum that outlived its
    moderator."""
    _edit_config(dataset, delete_forums_of_deleted_moderator=True)

    def outlives_moderator(forum):
        died = graph.persons[forum.moderator_person_id].lifecycle.deletion
        return died is not None and (forum.lifecycle.deletion is None
                                     or forum.lifecycle.deletion > died)
    line_no = next(n for n, key in enumerate(sorted(graph.forums), start=2)
                   if outlives_moderator(graph.forums[key]))
    return dataset / "temporal" / "forums.csv", line_no


class TestSerialization:
    def test_dataset_round_trip(self, graph, sas, gen_config, tmp_path):
        write_dataset(graph, sas, tmp_path / "out")
        graph2, sas2 = read_dataset(tmp_path / "out")
        assert sas2.config == gen_config
        assert graph2 == graph
        assert sas2.cutoff == sas.cutoff
        assert sas2.retired == sas.retired
        assert sas2.stream == sas.stream
        assert sas2.snapshot == sas.snapshot

    def test_generation_is_byte_deterministic(self, tmp_path):
        cfg = GenConfig(seed=55, num_persons=150)
        for name in ("a", "b"):
            g = generate_temporal_graph(cfg)
            write_dataset(g, split_at_cutoff(g, cfg), tmp_path / name)
        mismatch = []
        for sub in ("", "snapshot", "temporal"):
            left = tmp_path / "a" / sub
            right = tmp_path / "b" / sub
            common = [p.name for p in left.iterdir() if p.is_file()]
            _, bad, err = filecmp.cmpfiles(left, right, common, shallow=False)
            mismatch += bad + err
        assert mismatch == []

    @pytest.mark.parametrize("cfg,expected", [
        (GenConfig(seed=17, num_persons=300, cutoff_fraction=0.975, degree_exponent=1.7,
                   person_deletion_rate=0.08, content_scale=2.0),
         "d2515666629041938aab9288364a290f1343eae2f12fd40643c193654b174e79"),
        (GenConfig(seed=23, num_persons=300),
         "9c0e9bfd71867c910f310ef4e0d3d4368dfcc1d500def22d2937334bcdc20e0b"),
    ], ids=["paths-shaped", "default-shaped"])
    def test_golden_world(self, cfg, expected, tmp_path):
        """The written dataset is pinned by hash, so a faster generator
        must draw exactly the same world from the seed."""
        graph = generate_temporal_graph(cfg)
        write_dataset(graph, split_at_cutoff(graph, cfg), tmp_path)
        digest = hashlib.sha256()
        for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
            digest.update(path.relative_to(tmp_path).as_posix().encode())
            digest.update(path.read_bytes())
        assert digest.hexdigest() == expected

    @pytest.mark.parametrize("edit", [_not_json, _payload_missing_a_key,
                                      _going_back_in_time, _depends_on_itself],
                             ids=["not-json", "payload-missing-a-key",
                                  "going-back-in-time", "depends-on-itself"])
    def test_stream_line_unlike_the_split_is_refused(self, small_tree, tmp_path, edit):
        """A stream line is read as the line the split of the world
        config.json generates writes there, so any other line is refused
        where it stands."""
        shutil.copytree(small_tree / "dataset", tmp_path, dirs_exist_ok=True)
        path = tmp_path / "stream.ldjson"
        lines = path.read_text().splitlines(keepends=True)
        wanted = list(lines)
        line_no = edit(lines)
        path.write_text("".join(lines))
        with pytest.raises(ParseError) as err:
            read_dataset(tmp_path)
        assert str(err.value) == (
            f"{path}:{line_no}: not the world {tmp_path / 'config.json'} generates, "
            f"which writes {wanted[line_no - 1].rstrip()!r}")

    def test_snapshot_row_unlike_the_split_is_refused(self, small_tree, tmp_path, capsys):
        """A snapshot that lost a person is refused at the line the split of
        the world writes for them, by the reader and by the driver."""
        shutil.copytree(small_tree, tmp_path, dirs_exist_ok=True)
        dataset = tmp_path / "dataset"
        knows = dataset / "snapshot" / "knows.csv"
        persons = dataset / "snapshot" / "persons.csv"
        person = next(csv.reader(knows.read_text().splitlines()[1:]))[0]
        lines = persons.read_text().splitlines(keepends=True)
        line_no, lost = next((n, line) for n, line in enumerate(lines, start=1)
                             if line.startswith(f"{person},"))
        persons.write_text("".join(line for line in lines if line != lost))
        message = (f"{persons}:{line_no}: not the world {dataset / 'config.json'} "
                   f"generates, which writes {lost.rstrip()!r}")
        with pytest.raises(ParseError) as err:
            read_dataset(dataset)
        assert str(err.value) == message
        assert main(["driver", "--stream", str(tmp_path / "dataset"),
                     "--params", str(tmp_path / "params")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_snapshot_forum_without_moderator_follows_the_cascade_rule(self, tmp_path):
        """A forum outlives its deleted moderator when config.json says
        deleting a person leaves their forums standing (the other half of
        the rule is test_history_unlike_the_world_is_refused[cascade-flag])."""
        cfg = GenConfig(seed=2, num_persons=60, delete_forums_of_deleted_moderator=False)
        graph = generate_temporal_graph(cfg)
        sas = split_at_cutoff(graph, cfg)
        write_dataset(graph, sas, tmp_path)
        forums = tmp_path / "snapshot" / "forums.csv"
        forum, moderator = next(
            row[:2] for n, row in enumerate(csv.reader(forums.read_text().splitlines()))
            if n and int(row[1]) not in sas.snapshot.persons)
        _, sas2 = read_dataset(tmp_path)
        assert sas2.snapshot.forums[int(forum)].moderator_person_id == int(moderator)

    @pytest.mark.parametrize("cfg,edit", [
        (GenConfig(seed=3, num_persons=60), _repeat_a_person),
        (GenConfig(seed=9, num_persons=60, cutoff_fraction=0.6), _drop_a_knows_endpoint),
        (GenConfig(seed=3, num_persons=120), _root_past_the_chain_end),
        (GenConfig(seed=2, num_persons=60), _backdate_a_knows_edge),
        (GenConfig(seed=2, num_persons=60), _keep_a_forum_past_its_moderator),
        (GenConfig(seed=3, num_persons=60), _drop_the_last_like),
        (GenConfig(seed=9, num_persons=60, cutoff_fraction=0.6), _another_seed_and_exponent),
        (GenConfig(seed=2, num_persons=60, delete_forums_of_deleted_moderator=False),
         _delete_forums_of_deleted_moderators),
    ], ids=["repeated-row", "dangling-reference", "root-not-the-chain-end",
            "edge-before-its-endpoint", "forum-past-its-moderator", "last-like-gone",
            "another-world",
            "cascade-flag"])
    def test_history_unlike_the_world_is_refused(self, tmp_path, cfg, edit):
        """Every file is read as the world config.json generates writes it.
        So a damaged history is refused at its first changed line, and a
        config.json that names another world than the files beside it is
        refused at the first history line where that world differs."""
        dataset = tmp_path / "dataset"
        graph = generate_temporal_graph(cfg)
        write_dataset(graph, split_at_cutoff(graph, cfg), dataset)
        path, line_no = edit(dataset, graph)
        config = dataset / "config.json"
        named = load_config(GenConfig, json.loads(config.read_text()), "datagen")
        world = generate_temporal_graph(named)
        write_dataset(world, split_at_cutoff(world, named), tmp_path / "world")
        lines = (tmp_path / "world" / path.relative_to(dataset)).read_text().splitlines()
        if line_no > len(lines):
            reason = f"extra line: the world {config} generates ends at line {len(lines)}"
        elif line_no > len(path.read_text().splitlines()):
            reason = f"missing line: the world {config} generates writes {lines[line_no - 1]!r}"
        else:
            reason = f"not the world {config} generates, which writes {lines[line_no - 1]!r}"
        with pytest.raises(ParseError) as err:
            read_dataset(dataset)
        assert str(err.value) == f"{path}:{line_no}: {reason}"

    def test_csv_header_mismatch_is_reported(self, graph, sas, gen_config, tmp_path):
        write_dataset(graph, sas, tmp_path / "out")
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
            write_dataset(graph, sas, out)
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



@pytest.fixture(scope="module")
def history_tree(tmp_path_factory):
    """A 150-person dataset whose files the history tests damage."""
    root = tmp_path_factory.mktemp("history")
    cfg = GenConfig(seed=3, num_persons=150)
    graph = generate_temporal_graph(cfg)
    write_dataset(graph, split_at_cutoff(graph, cfg), root)
    return root


def _drop_first_data_row(lines):
    return lines[:1] + lines[2:]


def _drop_first_like_insert(lines):
    at = next(i for i, line in enumerate(lines)
              if json.loads(line)["opType"] in ("INS2", "INS3"))
    return lines[:at] + lines[at + 1:]


def _retired_plus_seven(lines):
    meta = json.loads("".join(lines))
    meta["retired"] += 7
    return json.dumps(meta, indent=2, sort_keys=True).splitlines(keepends=True)


@pytest.mark.parametrize("victim,edit,named", [
    ("snapshot/knows.csv", _drop_first_data_row, "snapshot/knows.csv"),
    ("stream.ldjson", _drop_first_like_insert, "stream.ldjson"),
    ("dataset.json", _retired_plus_seven, "dataset.json"),
    ("temporal/likes.csv", _drop_first_data_row, "temporal/likes.csv"),
], ids=["snapshot-row", "stream-line", "retired-count", "history-row"])
def test_dataset_that_disagrees_with_its_history_is_refused(history_tree, tmp_path,
                                                            victim, edit, named):
    """Each of these loaded while the snapshot, stream and dataset.json
    were read apart from the history.  Now every file is refused at its
    first line that is not what the world config.json generates writes,
    a history that lost a like included."""
    shutil.copytree(history_tree, tmp_path, dirs_exist_ok=True)
    path = tmp_path / victim
    path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
    with pytest.raises(ParseError) as err:
        read_dataset(tmp_path)
    message = str(err.value)
    assert message.startswith(f"{tmp_path / named}:{err.value.line_no}: ")
    assert f"the world {tmp_path / 'config.json'} generates" in message


@pytest.fixture(scope="module")
def small_tree(tmp_path_factory):
    """A 60-person dataset and its parameter files."""
    root = tmp_path_factory.mktemp("small")
    cfg = GenConfig(seed=9, num_persons=60, cutoff_fraction=0.6)
    graph = generate_temporal_graph(cfg)
    write_dataset(graph, split_at_cutoff(graph, cfg), root / "dataset")
    write_buckets(generate_parameters(graph, cutoff_instant(cfg), ParamGenOptions(per_day=2)),
                  root / "params")
    return root


def _bad_byte(data: bytes) -> bytes:
    """An invalid UTF-8 byte at the start of the second line."""
    at = data.index(b"\n") + 1
    return data[:at] + b"\xff" + data[at:]


def _stray_carriage_return(data: bytes) -> bytes:
    """A carriage return inside the second line, which csv cannot split."""
    at = data.index(b"\n") + 3
    return data[:at] + b"\r" + data[at:]


def _without(key):
    def damage(data: bytes) -> bytes:
        meta = json.loads(data)
        del meta[key]
        return json.dumps(meta).encode()
    return damage


@pytest.mark.parametrize("victim,damage", [
    ("dataset/stream.ldjson", _bad_byte),
    ("dataset/snapshot/persons.csv", _bad_byte),
    ("dataset/temporal/messages.csv", _bad_byte),
    ("dataset/dataset.json", _bad_byte),
    ("dataset/config.json", _bad_byte),
    ("params/*.ldjson", _bad_byte),
    ("dataset/dataset.json", _without("cutoff")),
    ("dataset/dataset.json", _without("retired")),
    ("dataset/dataset.json", lambda data: b"[1]"),
    ("dataset/temporal/knows.csv", _stray_carriage_return),
    ("dataset/config.json", _without("num_persons")),
], ids=["stream", "snapshot-csv", "temporal-csv", "dataset-json", "config-json",
        "params", "no-cutoff", "no-retired", "not-an-object", "csv-carriage-return",
        "config-missing-field"])
def test_undecodable_or_incomplete_file_is_a_parse_error(small_tree, tmp_path, victim, damage):
    shutil.copytree(small_tree, tmp_path, dirs_exist_ok=True)
    path = sorted(tmp_path.glob(victim))[0]
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ParseError) as err:
        if victim.startswith("params"):
            read_buckets(tmp_path / "params")
        else:
            read_dataset(tmp_path / "dataset")
    assert str(err.value).startswith(f"{path}:")
    if damage in (_bad_byte, _stray_carriage_return):
        assert err.value.line_no == 2


def _mutate(data: bytes, path, rng) -> tuple[str, bytes]:
    """One seeded single mutation of a file's bytes, and its name."""
    lines = data.splitlines(keepends=True)
    kinds = ["flip", "truncate", "drop-line", "duplicate-line"]
    if path.suffix in (".json", ".ldjson"):
        kinds.append("drop-key")
    kind = rng.choice(kinds)
    if kind == "flip":
        at = rng.randrange(len(data))
        return kind, data[:at] + bytes([data[at] ^ (1 << rng.randrange(8))]) + data[at + 1:]
    if kind == "truncate":
        return kind, data[:rng.randrange(len(data))]
    if kind == "drop-line":
        at = rng.randrange(len(lines))
        return kind, b"".join(lines[:at] + lines[at + 1:])
    if kind == "duplicate-line":
        at = rng.randrange(len(lines))
        return kind, b"".join(lines[:at + 1] + lines[at:])
    if path.suffix == ".json":
        doc = json.loads(data)
        del doc[rng.choice(sorted(doc))]
        return kind, json.dumps(doc).encode()
    at = rng.randrange(len(lines))
    record = json.loads(lines[at])
    inner = record.get("payload") or record.get("params")
    victim = inner if inner and rng.random() < 0.5 else record
    del victim[rng.choice(sorted(victim))]
    lines[at] = json.dumps(record).encode() + b"\n"
    return kind, b"".join(lines)


def test_seeded_corruption_sweep(small_tree, tmp_path):
    """Seeded single mutations of every kind of file: each either loads or
    fails with a SocialBenchError that names the damaged file."""
    rng = random.Random(20261019)
    dataset = sorted(p for p in (small_tree / "dataset").rglob("*") if p.is_file())
    params = sorted((small_tree / "params").iterdir())
    work = tmp_path / "tree"
    shutil.copytree(small_tree / "dataset", work / "dataset")
    (work / "params").mkdir()
    outcomes = Counter()
    escapes = []
    for _ in range(200):
        # A parameter file is read alone: read_buckets reads each file apart.
        original = rng.choice(dataset + [None]) or rng.choice(params)
        path = work / original.relative_to(small_tree)
        kind, damaged = _mutate(original.read_bytes(), path, rng)
        path.write_bytes(damaged)
        try:
            if path.parent.name == "params":
                read_buckets(path.parent)
            else:
                read_dataset(work / "dataset")
            outcomes["loaded"] += 1
        except SocialBenchError as exc:
            outcomes["refused"] += 1
            if str(path) not in str(exc):
                escapes.append((str(path.relative_to(work)), kind, repr(exc)))
        except Exception as exc:  # any other exception is an escape
            escapes.append((str(path.relative_to(work)), kind, repr(exc)))
        if path.parent.name == "params":
            path.unlink()
        else:
            path.write_bytes(original.read_bytes())
    assert escapes == [], "\n".join(map(str, escapes))
    assert outcomes["refused"] > 50 and outcomes["loaded"] > 0, outcomes
