"""derive_rng: the same streams as random.Random(repr(parts)), seeded late;
shuffle and choice: the same results and draws as random.Random's."""

import copy
import pickle
import random

import pytest

from socialbench.rng import choice, derive_rng, shuffle

PARTS = (7, 123, (4, 0))

FIRST_CALLS = {
    "random": lambda r: r.random(),
    "choice": lambda r: r.choice(range(1000)),
    "shuffle": lambda r: (lambda xs: r.shuffle(xs) or xs)(list(range(40))),
    "sample": lambda r: r.sample(range(10**6), 6),
    "randint": lambda r: r.randint(-5, 10**9),
    "randrange": lambda r: r.randrange(3, 10**12, 7),
    "uniform": lambda r: r.uniform(2.0, 5.0),
    "gauss": lambda r: r.gauss(0.0, 1.0),
    "getrandbits": lambda r: r.getrandbits(77),
    "randbytes": lambda r: r.randbytes(9),
    "getstate": lambda r: r.getstate(),
}


@pytest.mark.parametrize("first", sorted(FIRST_CALLS))
def test_first_call_matches_an_eagerly_seeded_random(first):
    derived, plain = derive_rng(*PARTS), random.Random(repr(PARTS))
    call = FIRST_CALLS[first]
    assert call(derived) == call(plain)
    # ... and the streams stay together afterwards.
    assert [derived.random() for _ in range(3)] == [plain.random() for _ in range(3)]
    assert derived.choice("abcdefgh") == plain.choice("abcdefgh")


def test_seeding_waits_for_the_first_draw(monkeypatch):
    seeds = []
    real_seed = random.Random.seed
    monkeypatch.setattr(random.Random, "seed",
                        lambda self, *args: seeds.append(args) or real_seed(self, *args))
    rng = derive_rng(*PARTS)
    assert seeds == []
    rng.random()
    rng.random()
    assert seeds == [(repr(PARTS), 2)]


def test_explicit_seed_and_setstate_replace_the_pending_key():
    reseeded = derive_rng(*PARTS)
    reseeded.seed(99)
    assert reseeded.random() == random.Random(99).random()
    restored = derive_rng(*PARTS)
    restored.setstate(random.Random(5).getstate())
    assert restored.random() == random.Random(5).random()


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda r: pickle.loads(pickle.dumps(r))])
def test_copies_draw_the_same_stream(clone):
    expected = random.Random(repr(PARTS))
    assert clone(derive_rng(*PARTS)).random() == expected.random()


@pytest.mark.parametrize("size", [0, 1, 2, 3, 5, 17, 64, 65, 1000])
@pytest.mark.parametrize("seed", range(5))
def test_shuffle_draws_what_random_shuffle_draws(size, seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    items, expected = list(range(size)), list(range(size))
    shuffle(ours, items)
    theirs.shuffle(expected)
    assert items == expected
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("size", [1, 2, 3, 5, 17, 64, 65, 1000])
@pytest.mark.parametrize("seed", range(5))
def test_choice_draws_what_random_choice_draws(size, seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    items = list(range(size))
    assert [choice(ours, items) for _ in range(50)] == [theirs.choice(items) for _ in range(50)]
    assert ours.random() == theirs.random()


def test_choice_of_an_empty_sequence_raises():
    with pytest.raises(IndexError):
        choice(random.Random(0), [])
