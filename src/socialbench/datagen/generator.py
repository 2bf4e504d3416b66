"""Deterministic temporal social-graph generator.

Entities are sampled in dependency order (persons, friendships, forums,
memberships, posts, comment trees, likes, then flashmob bursts) so that
every entity's final deletion instant is known before anything that hangs
off it is created.  The rules for where an entity may be placed come from
model.PARENTS and model.cascade_parents, read through one window per
entity:

  * creation(child) >= creation(parent) + t_safe for every parent, and
  * creation(child) <= deletion(parent) - t_safe whenever a parent will be
    deleted, so a parent's delete never races anything that depends on it.

Deletions propagate at generation time: an entity's effective deletion is
its own sampled removal, which must come at least t_safe before the first
deletion among the parents it dies with (its cascade parents), or else
that first deletion, at the same instant as the root.

Every draw comes from one random.Random(seed), so the world is pinned to
CPython's random algorithms; golden hashes in the tests pin it.  choice
and shuffle go through socialbench.rng, which takes the same draws.
"""

from __future__ import annotations

import logging
import math
import random
import time
from itertools import accumulate

from ..model import (
    COLLECTIONS,
    COMMENT,
    COUNTRIES,
    PARENTS,
    POST,
    TAGS,
    UNIVERSITIES_BY_COUNTRY,
    Forum,
    HasMemberEdge,
    KnowsEdge,
    Lifecycle,
    LikesEdge,
    Message,
    Person,
    TemporalGraph,
    cascade_parents,
)
from ..rng import choice, shuffle
from ..simtime import MS_PER_DAY, MS_PER_HOUR, MS_PER_MINUTE
from .config import GenConfig

# Content volume per person/forum/message; content_scale multiplies these.
FORUMS_PER_PERSON = 0.2
MEAN_MEMBERS_PER_FORUM = 5.0
MEAN_POSTS_PER_FORUM = 4.0
MEAN_COMMENTS_PER_POST = 1.6
MEAN_LIKES_PER_MESSAGE = 0.4
MAX_TARGET_DEGREE = 120

# Probability that an entity is removed for its own reasons (rather than by
# a cascade), and the mean lifetime of such removals.  Tuned so the update
# stream's delete/insert ratio sits near one percent.
OWN_DELETE = {
    "knows": (0.022, 60 * MS_PER_DAY),
    "forum": (0.007, 90 * MS_PER_DAY),
    "member": (0.019, 50 * MS_PER_DAY),
    "post": (0.019, 35 * MS_PER_DAY),
    "comment": (0.022, 25 * MS_PER_DAY),
    "like": (0.015, 30 * MS_PER_DAY),
}

# Mean delay between an entity becoming possible (all parents exist) and its
# creation.  Exponential offsets keep replies and likes close to what they
# react to instead of smearing them over the rest of the window.
CREATION_LAG = {
    "knows": 240 * MS_PER_DAY,
    "forum": 240 * MS_PER_DAY,
    "member": 150 * MS_PER_DAY,
    "post": 150 * MS_PER_DAY,
    "comment": 25 * MS_PER_DAY,
    "like": 30 * MS_PER_DAY,
}


logger = logging.getLogger(__name__)


def generate_temporal_graph(config: GenConfig) -> TemporalGraph:
    """Generate the full temporal graph for a config. Deterministic per seed."""
    started = time.perf_counter()
    graph = _Builder(config).build()
    if logger.isEnabledFor(logging.INFO):
        logger.info("generated %s in %.2f s", _counts(graph), time.perf_counter() - started)
    return graph


def _counts(graph: TemporalGraph) -> str:
    return ", ".join(f"{len(getattr(graph, c))} {c}" for c in COLLECTIONS)


def _poisson(rng: random.Random, lam: float) -> int:
    """A Poisson(lam) count: Knuth's product of uniforms, one slice of lam
    at most 500 at a time (counts of the slices sum to a Poisson(lam)
    count), so exp(-slice) never underflows."""
    count = 0
    while lam > 0:
        part = min(lam, 500.0)
        lam -= part
        limit = math.exp(-part)
        product = rng.random()
        while product > limit:
            count += 1
            product *= rng.random()
    return count


def _zipf(rng: random.Random, a: float) -> int:
    """A Zipf(a) draw, a > 1, by numpy's rejection loop.  A draw above
    e**43 is drawn again, as numpy redraws one past the 64-bit integers;
    testing it on the logarithm keeps u ** (-1 / (a - 1)) from
    overflowing a float when a is close to 1."""
    if a >= 1025:
        return 1
    am1 = a - 1.0
    b = 2.0**am1
    while True:
        u = 1.0 - rng.random()
        v = rng.random()
        if -math.log(u) > 43 * am1:
            continue
        x = math.floor(u ** (-1.0 / am1))
        t = (1.0 + 1.0 / x) ** am1
        if v * x * (t - 1.0) / (b - 1.0) <= t / b:
            return x


class _Builder:
    def __init__(self, config: GenConfig):
        self.cfg = config
        self.rng = random.Random(config.seed)
        self.graph = TemporalGraph()
        self.start = config.simulation_start
        self.end = config.simulation_end
        self.t_safe = config.t_safe
        self.scale = config.content_scale
        self._next_forum_id = 1
        self._next_message_id = 1
        self._friends: dict[int, list[int]] = {}
        self._forum_members: dict[int, list[int]] = {}
        # Per collection: (parent table, attribute, whether the entity dies
        # with that parent), read by every _window call.
        self._parents = {}
        for collection in COLLECTIONS:
            cascading = cascade_parents(collection, config.delete_forums_of_deleted_moderator)
            self._parents[collection] = tuple(
                (getattr(self.graph, parent), attr, (parent, attr) in cascading)
                for parent, attr in PARENTS[collection])

    # -- small sampling helpers -------------------------------------------

    def _lagged_instant(self, lo: int, hi: int, kind: str) -> int:
        """Draw a creation instant a decaying lag after its lower bound."""
        span = hi - lo
        rate = 1.0 / CREATION_LAG[kind]
        expovariate = self.rng.expovariate
        offset = int(expovariate(rate))
        for _ in range(4):
            if offset <= span:
                return lo + offset
            offset = int(expovariate(rate))
        return lo + self.rng.randrange(span + 1)

    def _window(self, collection: str, **refs) -> tuple[int, int, int | None] | None:
        """Where an entity of collection may be placed, given its parents'
        keys by attribute name: (lo, hi, bound).

        Its creation must fall in [lo, hi]: at least t_safe after every
        parent's creation and t_safe before every parent's deletion.  bound
        is the first deletion among the parents it dies with, or None.
        Returns None when no instant satisfies both margins.
        """
        t_safe = self.t_safe
        lo, hi, bound = self.start, self.end + 1 - t_safe, None
        for table, attr, cascades in self._parents[collection]:
            ref = refs.get(attr)
            if ref is None:
                continue
            life = table[ref].lifecycle
            if life.creation + t_safe > lo:
                lo = life.creation + t_safe
            deletion = life.deletion
            if deletion is not None:
                if deletion - t_safe < hi:
                    hi = deletion - t_safe
                if cascades and (bound is None or deletion < bound):
                    bound = deletion
        return (lo, hi, bound) if lo <= hi else None

    def _place(self, kind: str, window: tuple[int, int, int | None]) -> Lifecycle:
        """Draw a lifecycle in window: the creation, then an independent
        removal at least t_safe before the bound, else deletion at the bound.

        The margin keeps a cascade that reaches this entity t_safe after
        the entity's own delete, which the cascade's delete waits for.
        """
        lo, hi, bound = window
        creation = self._lagged_instant(lo, hi, kind)
        prob, mean = OWN_DELETE[kind]
        if self.rng.random() < prob:
            d = creation + max(self.t_safe, int(self.rng.expovariate(1.0 / mean)))
            if d < self.end and (bound is None or d <= bound - self.t_safe):
                return Lifecycle(creation, d)
        return Lifecycle(creation, bound)

    # -- stages ------------------------------------------------------------

    def build(self) -> TemporalGraph:
        started = time.perf_counter()
        for name, stage in (("persons", self._sample_persons), ("knows", self._sample_knows),
                            ("forums", self._sample_forums), ("members", self._sample_members),
                            ("threads", self._sample_threads), ("likes", self._sample_likes),
                            ("flashmobs", self._sample_flashmobs)):
            stage()
            if logger.isEnabledFor(logging.DEBUG):
                logger.debug("stage %s done at %.3f s: %s", name,
                             time.perf_counter() - started, _counts(self.graph))
        return self.graph

    def _sample_persons(self) -> None:
        n = self.cfg.num_persons
        if n == 0:
            return
        rng = self.rng
        window = self.end - self.start
        country_weights = list(accumulate(r**-0.7 for r in range(1, len(COUNTRIES) + 1)))
        tag_weights = list(accumulate(r**-0.6 for r in range(1, len(TAGS) + 1)))
        for pid in range(1, n + 1):
            country = rng.choices(COUNTRIES, cum_weights=country_weights)[0]
            first = choice(rng, country.first_names)
            last = choice(rng, country.last_names)
            university = None
            unis = UNIVERSITIES_BY_COUNTRY.get(country.id, ())
            if unis and rng.random() < 0.55:
                university = choice(rng, unis).id
            tag_count = min(5, 1 + _poisson(rng, 1.5))
            # Distinct tags, each drawn by weight; a repeat is drawn again.
            tags: set[int] = set()
            while len(tags) < tag_count:
                tags.add(rng.choices(TAGS, cum_weights=tag_weights)[0].id)

            creation = rng.randint(self.start, self.start + int(window * 0.85))
            deletion = None
            if rng.random() < self.cfg.person_deletion_rate:
                lifetime = max(4 * self.t_safe, int(rng.expovariate(1.0 / (window * 0.5))))
                d = creation + lifetime
                if d < self.end:
                    deletion = d
            self._friends[pid] = []
            self.graph.persons[pid] = Person(
                id=pid, first_name=first, last_name=last, country_id=country.id,
                university_id=university, tag_interests=frozenset(tags),
                lifecycle=Lifecycle(creation, deletion))

    def _sample_knows(self) -> None:
        """Power-law friendship degrees realized by stub matching.

        Each person draws a target degree; a shuffled global stub list is
        consumed in order so heavy nodes fill proportionally to their
        remaining demand instead of being starved by iteration order.  With
        probability homophily_weight a stub looks for a partner among
        university, country, or shared-tag peers before falling back to a
        uniform stub.
        """
        persons = self.graph.persons
        n = len(persons)
        if n < 2:
            return
        ids = sorted(persons)
        cap = min(n - 1, MAX_TARGET_DEGREE)
        targets = [min(_zipf(self.rng, self.cfg.degree_exponent), cap) for _ in ids]
        remaining = dict(zip(ids, targets))

        by_university: dict[int, list[int]] = {}
        by_country: dict[int, list[int]] = {}
        by_tag: dict[int, list[int]] = {}
        for pid in ids:
            p = persons[pid]
            if p.university_id is not None:
                by_university.setdefault(p.university_id, []).append(pid)
            by_country.setdefault(p.country_id, []).append(pid)
            for t in sorted(p.tag_interests):
                by_tag.setdefault(t, []).append(pid)

        # Each person's peer pools in the order a stub tries them, those
        # with someone besides the person only.
        peer_pools: dict[int, list[list[int]]] = {}
        for pid in ids:
            p = persons[pid]
            pools = [by_university[p.university_id]] if p.university_id is not None else []
            pools.append(by_country[p.country_id])
            pools += [by_tag[t] for t in sorted(p.tag_interests)]
            peer_pools[pid] = [pool for pool in pools if len(pool) > 1]

        stubs = [pid for pid, target in zip(ids, targets) for _ in range(target)]
        rng = self.rng
        shuffle(rng, stubs)
        pair_keys: set[tuple[int, int]] = set()
        random = rng.random
        homophily = self.cfg.homophily_weight

        def pick_from(pool: list[int], me: int, tries: int) -> int | None:
            """The first of tries uniform draws from pool that may still
            become a new friend of me."""
            for _ in range(tries):
                cand = choice(rng, pool)
                if (cand != me and remaining[cand] > 0
                        and ((me, cand) if me < cand else (cand, me)) not in pair_keys):
                    return cand
            return None

        for me in stubs:
            if remaining[me] <= 0:
                continue
            partner = None
            if random() < homophily:
                for pool in peer_pools[me]:
                    partner = pick_from(pool, me, 8)
                    if partner is not None:
                        break
            if partner is None:
                partner = pick_from(stubs, me, 15)
            if partner is None:
                continue

            win = self._window("knows", person1_id=me, person2_id=partner)
            if win is None:
                # No instant satisfies the safety margins for this pair;
                # burn the stubs so the loop terminates.
                remaining[me] -= 1
                remaining[partner] -= 1
                continue
            edge = KnowsEdge.make(me, partner, self._place("knows", win))
            pair_keys.add(edge.pair)
            remaining[me] -= 1
            remaining[partner] -= 1
            self.graph.knows[edge.pair] = edge
            self._friends[me].append(partner)
            self._friends[partner].append(me)

    def _sample_forums(self) -> None:
        persons = self.graph.persons
        if not persons:
            return
        count = max(1, round(FORUMS_PER_PERSON * len(persons)))
        ids = sorted(persons)
        for _ in range(count):
            moderator = choice(self.rng, ids)
            win = self._window("forums", moderator_person_id=moderator)
            if win is None:
                continue
            life = self._place("forum", win)
            fid = self._next_forum_id
            self._next_forum_id += 1
            self._forum_members[fid] = []
            self.graph.forums[fid] = Forum(fid, moderator, life)

    def _join(self, fid: int, pid: int) -> None:
        """Add a membership edge unless it exists or has no window."""
        if (fid, pid) in self.graph.members:
            return
        win = self._window("members", forum_id=fid, person_id=pid)
        if win is None:
            return
        self.graph.members[(fid, pid)] = HasMemberEdge(fid, pid, self._place("member", win))
        self._forum_members[fid].append(pid)

    def _sample_members(self) -> None:
        persons = self.graph.persons
        ids = sorted(persons)
        by_country: dict[int, list[int]] = {}
        for pid in ids:
            by_country.setdefault(persons[pid].country_id, []).append(pid)
        for fid in sorted(self.graph.forums):
            forum = self.graph.forums[fid]
            self._join(fid, forum.moderator_person_id)
            mod_country = persons[forum.moderator_person_id].country_id
            n = 1 + _poisson(self.rng, MEAN_MEMBERS_PER_FORUM * self.scale)
            for _ in range(n):
                if self.rng.random() < 0.5:
                    pool = by_country[mod_country]
                else:
                    pool = ids
                self._join(fid, choice(self.rng, pool))

    def _message_country(self, author: Person) -> int:
        # Mostly the author's home country; sometimes written while abroad.
        if self.rng.random() < 0.75:
            return author.country_id
        return choice(self.rng, COUNTRIES).id

    def _message_tags(self, author: Person, extra: int | None = None) -> frozenset[int]:
        interests = sorted(author.tag_interests)
        picks = set(self.rng.sample(interests, min(len(interests), self.rng.randrange(3))))
        if extra is not None:
            picks.add(extra)
        return frozenset(picks)

    def _add_message(self, author_id: int, forum_id: int | None, parent: Message | None,
                     tag: int | None = None, at: int | None = None) -> Message | None:
        """A post in forum_id, or a comment replying to parent; None when no
        creation instant fits.  at pins the creation to the nearest instant
        that fits."""
        win = self._window("messages", creator_person_id=author_id,
                           container_forum_id=forum_id,
                           reply_to_message_id=None if parent is None else parent.id)
        if win is None:
            return None
        if at is not None:
            lo, hi, bound = win
            at = min(max(at, lo), hi)
            win = (at, at, bound)
        author = self.graph.persons[author_id]
        life = self._place("post" if parent is None else "comment", win)
        mid = self._next_message_id
        self._next_message_id += 1
        msg = Message(
            id=mid, kind=POST if parent is None else COMMENT, creator_person_id=author_id,
            container_forum_id=forum_id,
            reply_to_message_id=None if parent is None else parent.id,
            country_id=self._message_country(author),
            creation_tag_ids=self._message_tags(author, tag), lifecycle=life,
            root_post_id=mid if parent is None else parent.root_post_id)
        self.graph.messages[mid] = msg
        return msg

    def _sample_threads(self) -> None:
        for fid in sorted(self.graph.forums):
            members = self._forum_members[fid]
            if not members:
                continue
            n_posts = _poisson(self.rng, MEAN_POSTS_PER_FORUM * self.scale)
            for _ in range(n_posts):
                author_id = choice(self.rng, members)
                post = self._add_message(author_id, fid, None)
                if post is None:
                    continue
                thread = [post]
                n_comments = _poisson(self.rng, MEAN_COMMENTS_PER_POST * self.scale)
                for _ in range(n_comments):
                    parent = choice(self.rng, thread)
                    commenter_pool = members + self._friends.get(parent.creator_person_id, [])
                    author_id = choice(self.rng, commenter_pool)
                    comment = self._add_message(author_id, None, parent)
                    if comment is not None:
                        thread.append(comment)

    def _sample_likes(self) -> None:
        for mid in sorted(self.graph.messages):
            msg = self.graph.messages[mid]
            n = _poisson(self.rng, MEAN_LIKES_PER_MESSAGE * self.scale)
            if n == 0:
                continue
            root = self.graph.messages[msg.root_post_id]
            pool = list(self._forum_members.get(root.container_forum_id, []))
            pool += self._friends.get(msg.creator_person_id, [])
            pool = [p for p in pool if p != msg.creator_person_id]
            if not pool:
                continue
            for _ in range(n):
                pid = choice(self.rng, pool)
                if (pid, mid) in self.graph.likes:
                    continue
                win = self._window("likes", person_id=pid, message_id=mid)
                if win is None:
                    continue
                self.graph.likes[(pid, mid)] = LikesEdge(pid, mid, self._place("like", win))

    def _sample_flashmobs(self) -> None:
        """Short bursts of themed activity that spike the hourly message rate."""
        if not self.graph.forums or self.cfg.flashmob_count == 0:
            return
        window = self.end - self.start
        forum_ids = sorted(self.graph.forums)
        for _ in range(self.cfg.flashmob_count):
            center = self.rng.randint(self.start + int(window * 0.1), self.end - int(window * 0.1))
            tag = choice(self.rng, TAGS).id
            forum = None
            for _ in range(30):
                fid = choice(self.rng, forum_ids)
                f = self.graph.forums[fid]
                lo = center - 2 * MS_PER_HOUR
                hi = center + 2 * MS_PER_HOUR
                if f.lifecycle.alive_throughout(lo, hi) and len(self._forum_members[fid]) >= 2:
                    forum = f
                    break
            if forum is None:
                continue
            members = self._forum_members[forum.id]
            size = 15 + _poisson(self.rng, 20 * self.scale)
            burst: list[Message] = []
            for _ in range(size):
                at = int(self.rng.gauss(center, 35 * MS_PER_MINUTE))
                author_id = choice(self.rng, members)
                parent = None
                if burst and self.rng.random() < 0.6:
                    parent = choice(self.rng, burst)
                msg = self._add_message(author_id, forum.id if parent is None else None,
                                        parent, tag, at)
                if msg is not None:
                    burst.append(msg)
