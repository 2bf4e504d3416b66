"""Core temporal schema: entities, lifecycles, and static dictionaries.

Every node and edge carries a lifecycle, a half-open interval
[creation, deletion): an entity is visible at its creation instant and
invisible from its deletion instant onward.  deletion is None for
entities that are never removed inside the simulation window.

Entities are immutable after creation; the only mutations the workload
performs are inserts and (cascading) deletes.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from .errors import CycleDetected, IntegrityError, MalformedOperation

POST = "Post"
COMMENT = "Comment"

# Typed update-operation codes used on the wire.  Inserts and deletes pair
# up by entity kind; DEL6/DEL7 cascade through reply trees, DEL1/DEL4
# cascade through everything a person or forum owns.
INS_PERSON = "INS1"
INS_LIKE_POST = "INS2"
INS_LIKE_COMMENT = "INS3"
INS_FORUM = "INS4"
INS_MEMBER = "INS5"
INS_POST = "INS6"
INS_COMMENT = "INS7"
INS_KNOWS = "INS8"
DEL_PERSON = "DEL1"
DEL_LIKE_POST = "DEL2"
DEL_LIKE_COMMENT = "DEL3"
DEL_FORUM = "DEL4"
DEL_MEMBER = "DEL5"
DEL_POST = "DEL6"
DEL_COMMENT = "DEL7"
DEL_KNOWS = "DEL8"

# (insert, delete) op codes of each (collection, message kind).  The kind
# is the message's own for posts and comments, the liked message's for
# likes, and None for the other collections.
_OP_TYPES: dict[tuple[str, str | None], tuple[str, str]] = {
    ("persons", None): (INS_PERSON, DEL_PERSON),
    ("knows", None): (INS_KNOWS, DEL_KNOWS),
    ("forums", None): (INS_FORUM, DEL_FORUM),
    ("messages", POST): (INS_POST, DEL_POST),
    ("messages", COMMENT): (INS_COMMENT, DEL_COMMENT),
    ("likes", POST): (INS_LIKE_POST, DEL_LIKE_POST),
    ("likes", COMMENT): (INS_LIKE_COMMENT, DEL_LIKE_COMMENT),
    ("members", None): (INS_MEMBER, DEL_MEMBER),
}
# Op code -> (collection, message kind) of the entity it creates or deletes.
OP_TARGET = {op: target for target, ops in _OP_TYPES.items() for op in ops}
INSERT_OPS = frozenset(ops[0] for ops in _OP_TYPES.values())
DELETE_OPS = frozenset(ops[1] for ops in _OP_TYPES.values())


@dataclass(frozen=True, slots=True)
class Lifecycle:
    """Half-open validity interval [creation, deletion)."""

    creation: int
    deletion: int | None = None

    def __post_init__(self):
        if self.deletion is not None and self.deletion <= self.creation:
            raise ValueError(f"deletion {self.deletion} must be after creation {self.creation}")

    def alive_at(self, t: int) -> bool:
        return self.creation <= t and (self.deletion is None or t < self.deletion)

    def alive_throughout(self, start: int, end: int) -> bool:
        """Alive at every instant of [start, end)."""
        return self.creation <= start and (self.deletion is None or self.deletion >= end)


@dataclass(frozen=True, slots=True)
class Person:
    id: int
    first_name: str
    last_name: str
    country_id: int
    university_id: int | None
    tag_interests: frozenset[int]
    lifecycle: Lifecycle


@dataclass(frozen=True, slots=True)
class KnowsEdge:
    """Undirected friendship, stored canonically with person1_id < person2_id."""

    person1_id: int
    person2_id: int
    lifecycle: Lifecycle

    def __post_init__(self):
        if self.person1_id >= self.person2_id:
            raise ValueError("knows edge endpoints must satisfy person1_id < person2_id")

    @staticmethod
    def make(a: int, b: int, lifecycle: Lifecycle) -> "KnowsEdge":
        lo, hi = (a, b) if a < b else (b, a)
        return KnowsEdge(lo, hi, lifecycle)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.person1_id, self.person2_id)


@dataclass(frozen=True, slots=True)
class Forum:
    id: int
    moderator_person_id: int
    lifecycle: Lifecycle


@dataclass(frozen=True, slots=True)
class Message:
    """A post or a comment.

    Posts live in a forum and root their own reply tree; comments reply to
    exactly one earlier message and inherit that tree's root post id.
    root_post_id is denormalized so thread lookups need no chain walk.
    """

    id: int
    kind: str
    creator_person_id: int
    container_forum_id: int | None
    reply_to_message_id: int | None
    country_id: int
    creation_tag_ids: frozenset[int]
    lifecycle: Lifecycle
    root_post_id: int

    def __post_init__(self):
        if self.kind == POST:
            if self.container_forum_id is None or self.reply_to_message_id is not None:
                raise ValueError("a post needs a forum and must not reply to anything")
            if self.root_post_id != self.id:
                raise ValueError("a post is its own thread root")
        elif self.kind == COMMENT:
            if self.reply_to_message_id is None or self.container_forum_id is not None:
                raise ValueError("a comment replies to a message and has no forum")
        else:
            raise ValueError(f"unknown message kind {self.kind!r}")


@dataclass(frozen=True, slots=True)
class LikesEdge:
    person_id: int
    message_id: int
    lifecycle: Lifecycle


@dataclass(frozen=True, slots=True)
class HasMemberEdge:
    forum_id: int
    person_id: int
    lifecycle: Lifecycle


@dataclass(frozen=True)
class UpdateOperation:
    """One typed stream event.

    scheduled_time is the simulation instant the operation takes effect
    (the entity's creation instant for inserts, the deletion instant for
    deletes).  dependency_time is the latest instant whose operations must
    commit first (see datagen.split); the replay driver refuses to start the
    operation before that instant is confirmed.
    """

    op_type: str
    scheduled_time: int
    dependency_time: int
    payload: dict

    def __post_init__(self):
        if self.op_type not in INSERT_OPS and self.op_type not in DELETE_OPS:
            raise ValueError(f"unknown op type {self.op_type!r}")

    @property
    def is_insert(self) -> bool:
        return self.op_type in INSERT_OPS


def root_post_of(message_id: int, messages: Mapping[int, "Message"]) -> int:
    """Walk reply edges up to the thread's post.

    messages maps message id to Message.  Raises CycleDetected when the
    chain revisits a message, and KeyError when a link is dangling.
    """
    seen = set()
    current = message_id
    while True:
        if current in seen:
            raise CycleDetected(f"reply chain starting at {message_id} loops at {current}")
        seen.add(current)
        msg = messages[current]
        if msg.kind == POST:
            return msg.id
        current = msg.reply_to_message_id


@dataclass
class TemporalGraph:
    """Entities keyed by id, one dict per collection.

    Holds the generator's full history, the snapshot split off at the
    cutoff, or the live state of a naive store.
    """

    persons: dict[int, Person] = field(default_factory=dict)
    knows: dict[tuple[int, int], KnowsEdge] = field(default_factory=dict)
    forums: dict[int, Forum] = field(default_factory=dict)
    messages: dict[int, Message] = field(default_factory=dict)
    likes: dict[tuple[int, int], LikesEdge] = field(default_factory=dict)
    members: dict[tuple[int, int], HasMemberEdge] = field(default_factory=dict)

    def entity_count(self) -> int:
        return sum(self.counts().values())

    def counts(self) -> dict[str, int]:
        return {collection: len(getattr(self, collection)) for collection in COLLECTIONS}

    def copy(self) -> "TemporalGraph":
        """A graph whose dicts can change without changing this one's."""
        return TemporalGraph(*(dict(getattr(self, c)) for c in COLLECTIONS))


# --- schema: what depends on what -------------------------------------------

COLLECTIONS = ("persons", "knows", "forums", "messages", "likes", "members")

# What each collection's entities depend on: (parent collection, attribute
# holding the parent's key), owner first so that a cascade tie attaches to
# the widest root.  An entity cannot be created before its parents and is
# deleted with them.  A None reference (a post's reply_to_message_id, a
# comment's container_forum_id) is no dependency.  The forum -> moderator
# edge cascades only when delete_forums_of_deleted_moderator is on; see
# cascade_parents.
PARENTS: dict[str, tuple[tuple[str, str], ...]] = {
    "persons": (),
    "knows": (("persons", "person1_id"), ("persons", "person2_id")),
    "forums": (("persons", "moderator_person_id"),),
    "messages": (("persons", "creator_person_id"), ("forums", "container_forum_id"),
                 ("messages", "reply_to_message_id")),
    "likes": (("persons", "person_id"), ("messages", "message_id")),
    "members": (("persons", "person_id"), ("forums", "forum_id")),
}


def key_of(collection: str, entity):
    """The key an entity is stored under in its collection."""
    if collection == "knows":
        return entity.pair
    if collection == "likes":
        return (entity.person_id, entity.message_id)
    if collection == "members":
        return (entity.forum_id, entity.person_id)
    return entity.id


def references(collection: str, entity) -> list[tuple[str, object]]:
    """(parent collection, parent key) of each entity this one depends on,
    in PARENTS order."""
    return [(parent, ref) for parent, attr in PARENTS[collection]
            if (ref := getattr(entity, attr)) is not None]


def cascade_parents(collection: str, delete_forums_of_deleted_moderator: bool):
    """The PARENTS of a collection whose deletion deletes its entities too."""
    if collection == "forums" and not delete_forums_of_deleted_moderator:
        return ()
    return PARENTS[collection]


def check_references(graph: TemporalGraph, delete_forums_of_deleted_moderator: bool) -> None:
    """Raise IntegrityError at the first entity of a store's state that is
    stored under a key not its own or outlives an entity it dies with.

    A forum may be left without its moderator when deleting a person
    leaves their forums standing.
    """
    for collection in COLLECTIONS:
        parents = cascade_parents(collection, delete_forums_of_deleted_moderator)
        for key, entity in getattr(graph, collection).items():
            if key != key_of(collection, entity):
                raise IntegrityError(f"{collection} {key} stored under the wrong key")
            for parent, attr in parents:
                ref = getattr(entity, attr)
                if ref is not None and ref not in getattr(graph, parent):
                    raise IntegrityError(f"{collection} {key} references missing {parent} {ref}")


def check_temporal_invariants(graph: TemporalGraph) -> list[str]:
    """Structural audit of a temporal graph; returns human-readable violations.

    Checks keys, reference integrity and lifecycle containment along
    PARENTS (nothing is created before or outlives what it depends on),
    and that every reply chain reaches its stored root post.
    """
    bad: list[str] = []

    def deletion(lc: Lifecycle) -> float:
        return float("inf") if lc.deletion is None else lc.deletion

    for collection in COLLECTIONS:
        for key, entity in getattr(graph, collection).items():
            where = f"{collection} {key}"
            if key != key_of(collection, entity):
                bad.append(f"{where}: stored under wrong key")
            life = entity.lifecycle
            for parent, ref in references(collection, entity):
                target = getattr(graph, parent).get(ref)
                if target is None:
                    bad.append(f"{where}: missing {parent} {ref}")
                elif collection == "forums":
                    # Deleting a moderator may leave their forums standing.
                    if not target.lifecycle.alive_at(life.creation):
                        bad.append(f"{where}: moderator not alive at forum creation")
                else:
                    created = target.lifecycle.creation
                    # A comment comes strictly after the message it replies to.
                    if life.creation < created or (parent == collection
                                                   and life.creation == created):
                        bad.append(f"{where}: not created after {parent} {ref}")
                    if deletion(life) > deletion(target.lifecycle):
                        bad.append(f"{where}: outlives {parent} {ref}")
            if collection == "messages" and entity.kind == COMMENT:
                try:
                    root = root_post_of(key, graph.messages)
                except (CycleDetected, KeyError):
                    bad.append(f"{where}: reply chain does not reach a post")
                else:
                    if root != entity.root_post_id:
                        bad.append(f"{where}: stored root {entity.root_post_id}, actual {root}")
    return bad


# --- update codec: entities on the wire ---------------------------------------

# Payload of each insert: (payload key, entity attribute) pairs.
_LIKE_FIELDS = (("personId", "person_id"), ("messageId", "message_id"))
_INSERT_FIELDS: dict[str, tuple[tuple[str, str], ...]] = {
    INS_PERSON: (("id", "id"), ("firstName", "first_name"), ("lastName", "last_name"),
                 ("countryId", "country_id"), ("universityId", "university_id"),
                 ("tagInterests", "tag_interests")),
    INS_KNOWS: (("person1Id", "person1_id"), ("person2Id", "person2_id")),
    INS_FORUM: (("id", "id"), ("moderatorPersonId", "moderator_person_id")),
    INS_POST: (("id", "id"), ("creatorPersonId", "creator_person_id"),
               ("containerForumId", "container_forum_id"), ("countryId", "country_id"),
               ("tagIds", "creation_tag_ids")),
    INS_COMMENT: (("id", "id"), ("creatorPersonId", "creator_person_id"),
                  ("replyToMessageId", "reply_to_message_id"), ("countryId", "country_id"),
                  ("tagIds", "creation_tag_ids")),
    INS_LIKE_POST: _LIKE_FIELDS,
    INS_LIKE_COMMENT: _LIKE_FIELDS,
    INS_MEMBER: (("forumId", "forum_id"), ("personId", "person_id")),
}
# Payload of each delete: the names of its target's key parts.
_DELETE_FIELDS = {
    "persons": ("personId",), "knows": ("person1Id", "person2Id"),
    "forums": ("forumId",), "messages": ("messageId",),
    "likes": ("personId", "messageId"), "members": ("forumId", "personId"),
}
# Attributes holding id sets, which travel as sorted lists.
ID_SETS = ("tag_interests", "creation_tag_ids")
ENTITY_CLASSES = {"persons": Person, "knows": KnowsEdge, "forums": Forum,
                  "messages": Message, "likes": LikesEdge, "members": HasMemberEdge}


def _op_types(graph: TemporalGraph, collection: str, entity) -> tuple[str, str]:
    kind = None
    if collection == "messages":
        kind = entity.kind
    elif collection == "likes":
        kind = graph.messages[entity.message_id].kind
    return _OP_TYPES[collection, kind]


def insert_op(graph: TemporalGraph, collection: str, key,
              dependency_time: int) -> UpdateOperation:
    """The operation that creates the graph's entity collection[key]."""
    entity = getattr(graph, collection)[key]
    op_type = _op_types(graph, collection, entity)[0]
    payload = {}
    for name, attr in _INSERT_FIELDS[op_type]:
        value = getattr(entity, attr)
        payload[name] = sorted(value) if attr in ID_SETS else value
    return UpdateOperation(op_type, entity.lifecycle.creation, dependency_time, payload)


def delete_op(graph: TemporalGraph, collection: str, key,
              dependency_time: int) -> UpdateOperation:
    """The operation that deletes the graph's entity collection[key] and its
    cascade."""
    entity = getattr(graph, collection)[key]
    parts = key if isinstance(key, tuple) else (key,)
    return UpdateOperation(_op_types(graph, collection, entity)[1],
                           entity.lifecycle.deletion, dependency_time,
                           dict(zip(_DELETE_FIELDS[collection], parts)))


def decode_insert(op: UpdateOperation, root_of=None) -> tuple[str, object]:
    """The (collection, entity) an insert creates, alive from its scheduled time.

    A comment's thread root is not on the wire: root_of(message id) gives
    the root post of the message it replies to.  Without root_of, the
    comment's root_post_id is None.
    """
    fields = _INSERT_FIELDS.get(op.op_type)
    if fields is None:
        raise MalformedOperation(f"{op.op_type} is not an insert")
    collection, kind = OP_TARGET[op.op_type]
    life = Lifecycle(op.scheduled_time)
    try:
        payload, values = op.payload, {}
        for name, attr in fields:
            values[attr] = frozenset(payload[name]) if attr in ID_SETS else payload[name]
        if collection == "knows":
            return collection, KnowsEdge.make(values["person1_id"], values["person2_id"], life)
        if collection == "messages":
            values["kind"] = kind
            if kind == POST:
                values["reply_to_message_id"] = None
                values["root_post_id"] = values["id"]
            else:
                values["container_forum_id"] = None
                reply_to = values["reply_to_message_id"]
                values["root_post_id"] = root_of(reply_to) if root_of else None
        return collection, ENTITY_CLASSES[collection](lifecycle=life, **values)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedOperation(f"malformed {op.op_type} payload: {exc!r}") from exc


def delete_target(op: UpdateOperation) -> tuple[str, object]:
    """The (collection, key) of the entity a delete removes with its cascade."""
    if op.is_insert:
        raise MalformedOperation(f"{op.op_type} is not a delete")
    collection, _kind = OP_TARGET[op.op_type]
    try:
        parts = tuple(op.payload[name] for name in _DELETE_FIELDS[collection])
        if collection == "knows":
            return collection, (min(parts), max(parts))
    except (KeyError, TypeError) as exc:
        raise MalformedOperation(f"malformed {op.op_type} payload: {exc!r}") from exc
    return collection, parts if len(parts) > 1 else parts[0]


# --- static dictionaries -------------------------------------------------
#
# Small closed-world lookup tables.  Country name pools drive the
# name/location correlation in the generator; universities belong to a
# country and seed the friendship homophily.

@dataclass(frozen=True)
class Country:
    id: int
    name: str
    first_names: tuple[str, ...]
    last_names: tuple[str, ...]


@dataclass(frozen=True)
class University:
    id: int
    name: str
    country_id: int


@dataclass(frozen=True)
class Tag:
    id: int
    name: str


COUNTRIES: tuple[Country, ...] = (
    Country(1, "India", ("Arjun", "Priya", "Rahul", "Ananya", "Vikram", "Deepa"),
            ("Sharma", "Patel", "Singh", "Gupta", "Iyer", "Khan")),
    Country(2, "China", ("Wei", "Jing", "Hao", "Yan", "Li", "Fang"),
            ("Wang", "Li", "Zhang", "Chen", "Liu", "Yang")),
    Country(3, "Germany", ("Lukas", "Anna", "Felix", "Lena", "Jonas", "Marie"),
            ("Mueller", "Schmidt", "Fischer", "Weber", "Wagner", "Becker")),
    Country(4, "France", ("Louis", "Camille", "Hugo", "Chloe", "Jules", "Manon"),
            ("Martin", "Bernard", "Dubois", "Moreau", "Laurent", "Petit")),
    Country(5, "Brazil", ("Joao", "Maria", "Pedro", "Ana", "Lucas", "Beatriz"),
            ("Silva", "Santos", "Oliveira", "Souza", "Costa", "Pereira")),
    Country(6, "United States", ("James", "Emily", "Michael", "Sarah", "David", "Ashley"),
            ("Smith", "Johnson", "Brown", "Davis", "Miller", "Wilson")),
    Country(7, "Japan", ("Haruto", "Yui", "Sota", "Aoi", "Ren", "Hina"),
            ("Sato", "Suzuki", "Takahashi", "Tanaka", "Watanabe", "Ito")),
    Country(8, "Spain", ("Alejandro", "Lucia", "Pablo", "Sofia", "Diego", "Carmen"),
            ("Garcia", "Rodriguez", "Fernandez", "Lopez", "Martinez", "Sanchez")),
    Country(9, "Italy", ("Leonardo", "Giulia", "Francesco", "Aurora", "Matteo", "Elena"),
            ("Rossi", "Russo", "Ferrari", "Esposito", "Bianchi", "Romano")),
    Country(10, "Mexico", ("Santiago", "Valentina", "Mateo", "Regina", "Emiliano", "Camila"),
            ("Hernandez", "Gonzalez", "Ramirez", "Torres", "Flores", "Vargas")),
    Country(11, "Poland", ("Jakub", "Zuzanna", "Szymon", "Maja", "Filip", "Oliwia"),
            ("Nowak", "Kowalski", "Wisniewski", "Wojcik", "Kaminski", "Zielinski")),
    Country(12, "Egypt", ("Omar", "Nour", "Youssef", "Salma", "Karim", "Mariam"),
            ("Hassan", "Mohamed", "Ahmed", "Mahmoud", "Ali", "Ibrahim")),
    Country(13, "Nigeria", ("Chinedu", "Amara", "Emeka", "Ngozi", "Tunde", "Folake"),
            ("Okafor", "Adeyemi", "Okonkwo", "Balogun", "Eze", "Abubakar")),
    Country(14, "Sweden", ("Erik", "Elsa", "Oscar", "Astrid", "Nils", "Freja"),
            ("Andersson", "Johansson", "Karlsson", "Nilsson", "Larsson", "Lindberg")),
    Country(15, "Turkey", ("Mehmet", "Zeynep", "Mustafa", "Elif", "Emre", "Ayse"),
            ("Yilmaz", "Kaya", "Demir", "Celik", "Sahin", "Aydin")),
    Country(16, "Vietnam", ("Minh", "Linh", "Duc", "Mai", "Quang", "Thao"),
            ("Nguyen", "Tran", "Le", "Pham", "Hoang", "Vu")),
)

UNIVERSITIES: tuple[University, ...] = (
    University(101, "Indian Institute of Science", 1),
    University(102, "University of Delhi", 1),
    University(103, "Tsinghua University", 2),
    University(104, "Fudan University", 2),
    University(105, "TU Muenchen", 3),
    University(106, "Universitaet Heidelberg", 3),
    University(107, "Sorbonne", 4),
    University(108, "Universite de Lyon", 4),
    University(109, "Universidade de Sao Paulo", 5),
    University(110, "UFRJ", 5),
    University(111, "MIT", 6),
    University(112, "UC Berkeley", 6),
    University(113, "University of Tokyo", 7),
    University(114, "Kyoto University", 7),
    University(115, "Universidad de Barcelona", 8),
    University(116, "Politecnico di Milano", 9),
    University(117, "UNAM", 10),
    University(118, "University of Warsaw", 11),
    University(119, "Cairo University", 12),
    University(120, "University of Lagos", 13),
    University(121, "KTH", 14),
    University(122, "Bogazici University", 15),
    University(123, "Vietnam National University", 16),
)

TAGS: tuple[Tag, ...] = (
    Tag(201, "photography"), Tag(202, "hiking"), Tag(203, "jazz"),
    Tag(204, "football"), Tag(205, "cooking"), Tag(206, "astronomy"),
    Tag(207, "chess"), Tag(208, "cinema"), Tag(209, "gardening"),
    Tag(210, "cycling"), Tag(211, "poetry"), Tag(212, "robotics"),
    Tag(213, "sailing"), Tag(214, "opera"), Tag(215, "basketball"),
    Tag(216, "painting"), Tag(217, "history"), Tag(218, "climbing"),
    Tag(219, "electronics"), Tag(220, "tennis"), Tag(221, "anime"),
    Tag(222, "running"), Tag(223, "board games"), Tag(224, "street food"),
)

COUNTRIES_BY_ID = {c.id: c for c in COUNTRIES}
UNIVERSITIES_BY_COUNTRY: dict[int, tuple[University, ...]] = {}
for _u in UNIVERSITIES:
    UNIVERSITIES_BY_COUNTRY.setdefault(_u.country_id, ())
    UNIVERSITIES_BY_COUNTRY[_u.country_id] = UNIVERSITIES_BY_COUNTRY[_u.country_id] + (_u,)
