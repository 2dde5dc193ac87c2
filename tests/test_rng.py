"""SeededRng streams: a derived stream is the stream of its derived seed, and
a generator is seeded only for a stream that draws."""

import random
from types import SimpleNamespace

import pytest

from knnopinion import rng
from knnopinion.harness import simulate
from knnopinion.rng import SeededRng
from knnopinion.scenario import parse_scenario


@pytest.fixture
def seedings(monkeypatch):
    """The seed of every generator SeededRng makes, in order."""
    seeds = []

    class Counted(random.Random):
        def __init__(self, seed):
            seeds.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(rng, "random", SimpleNamespace(Random=Counted))
    return seeds


def draws(stream):
    items = list(range(10))
    stream.shuffle(items)
    return ([stream.randbelow(m) for m in (1, 2, 7, 1000, 2**40)],
            [stream.uniform(-1.0, 3.0) for _ in range(5)], items)


@pytest.mark.parametrize("seed", [0, 42, "7", "acceptance:01", 2**70])
@pytest.mark.parametrize("name", ["init", "schedule", "events", "cluster-size", "zy:5:3"])
def test_a_derived_stream_draws_what_its_derived_seed_draws(seed, name):
    assert draws(SeededRng(seed).derive(name)) == draws(SeededRng(f"{seed}:{name}"))


def test_a_derive_only_parent_seeds_nothing(seedings):
    parent = SeededRng(5)
    child = parent.derive("a")
    grandchild = child.derive("b")
    assert seedings == []
    grandchild.randbelow(10)
    assert seedings == ["5:a:b"]
    parent.randbelow(10)
    parent.randbelow(10)
    assert seedings == ["5:a:b", 5]


def test_simulate_seeds_only_the_streams_it_draws(seedings):
    spec = parse_scenario({
        "model": {"kind": "knn", "k": 2},
        "initial": {"kind": "uniform_random", "n": 4, "seed": 3},
        "schedule": {"kind": "uniform_random", "seed": 9},
        "max_steps": 5,
    })
    simulate(spec)
    assert seedings == ["3:init", "9:schedule"]


@pytest.mark.parametrize("m", [1, 2, 7, 1000, 2**40])
@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "drawn-before"])
def test_randbelow_many_is_repeated_randbelow(warm, m):
    one, batch = SeededRng("zy:5:3"), SeededRng("zy:5:3")
    if warm:
        one.randbelow(3)
        batch.randbelow(3)
    assert batch.randbelow_many(m, 40) == [one.randbelow(m) for _ in range(40)]
    # the same getrandbits calls, so the generator is left in the same state
    assert batch._r.getstate() == one._r.getstate()
    assert batch.randbelow_many(m, 0) == []
    assert batch._r.getstate() == one._r.getstate()


def test_randbelow_many_rejects_an_empty_range():
    with pytest.raises(ValueError, match="bound must be positive"):
        SeededRng(5).randbelow_many(0, 3)
