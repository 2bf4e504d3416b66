"""Deterministic RNG derivation from composite keys.

random.Random seeded with a str hashes it with sha512, which is stable
across processes and interpreter versions, unlike tuple seeding (hash
based, deprecated).  Benchmark and validation runs must derive identical
generators for the same key, so every composite-seed construction goes
through here.

The seeding, and the key string it hashes, are deferred to the first
draw.  The driver derives a generator for every query it runs, but only
a few answers trigger a draw, and the sha512 plus Mersenne Twister
seeding costs several times what the rest of a short read does.
"""

from __future__ import annotations

import random


class _DeferredRandom(random.Random):
    """A Random that seeds itself from repr(parts) on its first use.

    Every draw goes through random() or getrandbits(), so overriding
    both covers them all.  Overriding getrandbits also keeps
    Random.__init_subclass__ choosing _randbelow_with_getrandbits, so
    choice, shuffle and sample draw the same streams as a plain Random.
    """

    def __init__(self, parts: tuple | None = None):
        # random.Random.__init__ would seed at once; this only records
        # the parts.  Parts of None is the no-argument constructor that
        # copy and pickle call before setstate.
        self._parts = parts
        self.gauss_next = None

    def _seed_pending(self) -> None:
        if self._parts is not None:
            self.seed(repr(self._parts))

    def seed(self, a=None, version=2) -> None:
        self._parts = None
        super().seed(a, version)

    def setstate(self, state) -> None:
        self._parts = None
        super().setstate(state)

    def getstate(self):
        self._seed_pending()
        return super().getstate()

    def random(self) -> float:
        self._seed_pending()
        return super().random()

    def getrandbits(self, k: int) -> int:
        self._seed_pending()
        return super().getrandbits(k)


def derive_rng(*parts) -> random.Random:
    """A Random whose stream depends only on the given parts.

    It draws what random.Random(repr(parts)) draws.
    """
    return _DeferredRandom(parts)


def shuffle(rng: random.Random, items: list) -> None:
    """Shuffle items in place as rng.shuffle(items) does, draw for draw.

    Random.shuffle calls the pure-Python _randbelow once per element; the
    same getrandbits draws taken here give the same order and leave rng
    in the same state, in about half the time.  That holds for any rng
    whose _randbelow draws with getrandbits: random.Random and every
    Random here.
    """
    getrandbits = rng.getrandbits
    for i in reversed(range(1, len(items))):
        n = i + 1
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        items[i], items[j] = items[j], items[i]


def choice(rng: random.Random, seq):
    """An element of seq as rng.choice(seq) picks it, draw for draw.

    Random.choice goes through two pure-Python frames, choice and
    _randbelow; this takes the same getrandbits draws in one.  Like
    Random.choice it raises IndexError on an empty seq, which would
    otherwise draw getrandbits(0) forever.
    """
    n = len(seq)
    if not n:
        raise IndexError("Cannot choose from an empty sequence")
    getrandbits = rng.getrandbits
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return seq[r]
