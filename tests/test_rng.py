import numpy as np
import pytest

from vidchain.rng import RandomStream


def test_same_seed_same_draws():
    a = RandomStream.from_seed(7).normal((5, 3))
    b = RandomStream.from_seed(7).normal((5, 3))
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = RandomStream.from_seed(7).normal(100)
    b = RandomStream.from_seed(8).normal(100)
    assert not np.array_equal(a, b)


def test_split_is_deterministic_and_named():
    root = RandomStream.from_seed(0)
    a1 = root.split("enc").normal(10)
    a2 = RandomStream.from_seed(0).split("enc").normal(10)
    b = RandomStream.from_seed(0).split("gen").normal(10)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_split_unaffected_by_parent_draws():
    # Child identity depends on the parent's key, not its draw position.
    r1 = RandomStream.from_seed(3)
    r1.normal(1000)
    c1 = r1.split("x").normal(4)
    c2 = RandomStream.from_seed(3).split("x").normal(4)
    assert np.array_equal(c1, c2)


def test_nested_split_paths_are_distinct():
    root = RandomStream.from_seed(1)
    ab = root.split("a").split("b").normal(8)
    ba = root.split("b").split("a").normal(8)
    assert not np.array_equal(ab, ba)


def test_integers_respect_range():
    draws = RandomStream.from_seed(5).integers(2, 9, shape=1000)
    assert draws.min() >= 2 and draws.max() <= 8


def test_bad_key_length_rejected():
    with pytest.raises(ValueError):
        RandomStream(b"short")


# Exact draws of nested split paths: when a stream builds its Philox
# generator must not change what the generator draws.
PINNED = [
    (lambda: RandomStream.from_seed(0).split("enc").normal(3),
     [float.fromhex(h) for h in ("-0x1.b61ccefd98946p-1",
                                 "-0x1.e4f9a5e89e43ep-1",
                                 "0x1.a92ab256b349bp+0")]),
    (lambda: RandomStream.from_seed(0).split("a").split("b").integers(0, 9, 4),
     [5, 1, 0, 3]),
    (lambda: RandomStream.from_seed(7, "chain-generate").split("clip3")
     .split("eps_x").normal((1, 2)).ravel(),
     [float.fromhex(h) for h in ("0x1.905304753c8b7p-2",
                                 "0x1.69dd43d82fef0p+0")]),
    (lambda: RandomStream.from_seed(5).split("x").uniform(2, -1.0, 1.0),
     [float.fromhex(h) for h in ("0x1.7b7a38e5911c8p-3",
                                 "-0x1.19340d5549980p-7")]),
    (lambda: RandomStream.from_seed(5).split("y").permutation(6),
     [3, 0, 2, 4, 5, 1]),
]


@pytest.mark.parametrize("i", range(len(PINNED)))
def test_nested_split_draws_are_pinned(i):
    draw, expected = PINNED[i]
    assert draw().tolist() == expected


def test_generator_is_built_on_first_draw_only(monkeypatch):
    from vidchain import rng
    built = []
    philox = rng.np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(rng.np.random, "Philox", counting)
    root = RandomStream.from_seed(4)
    child = root.split("a").split("b")
    assert built == []
    first = child.normal(5)
    assert len(built) == 1
    rest = child.normal(5)
    assert len(built) == 1
    whole = RandomStream.from_seed(4).split("a").split("b").normal(10)
    assert np.array_equal(np.concatenate([first, rest]), whole)
