"""Seeded generators: make_rng draws what np.random.default_rng draws from
the same entropy, builds the generator only on its first draw, and takes
the whole seed."""

import copy
import pickle
import zlib

import numpy as np
import pytest

from pllab import sampling
from pllab.bases import BaseNorm
from pllab.quantizations import Quantization, amp_norm
from pllab.sampling import make_rng


def entropy(seed, *labels):
    words = [zlib.crc32(repr(s.item() if isinstance(s, np.generic) else s).encode()) for s in labels]
    return [seed] + words


LABELS = [(), ("amp", "hilbert"), ("basis", "min", 3), ("unfold", "left", np.int64(2)), ("svdsplit", 0, 5)]


@pytest.mark.parametrize("labels", LABELS, ids=repr)
@pytest.mark.parametrize("seed", [0, 1, 71, 2**31, 2**32 - 1])
def test_draws_equal_those_of_default_rng_on_the_same_entropy(seed, labels):
    rng, ref = make_rng(seed, *labels), np.random.default_rng(entropy(seed, *labels))
    # the first access goes through methods nothing in the package names specially
    assert np.array_equal(rng.permutation(9), ref.permutation(9))
    assert rng.bit_generator.state == ref.bit_generator.state
    assert np.array_equal(rng.choice(7, size=4, replace=False), ref.choice(7, size=4, replace=False))
    assert np.array_equal(rng.standard_normal((3, 2)), ref.standard_normal((3, 2)))
    assert rng.integers(0, 1000) == ref.integers(0, 1000)
    assert rng.random() == ref.random()


def test_copies_and_pickles_draw_the_same_stream():
    for drawn_first in (False, True):
        rng = make_rng(5, "copy")
        if drawn_first:
            rng.random()
        for twin in (copy.deepcopy(rng), pickle.loads(pickle.dumps(rng))):
            assert np.array_equal(twin.standard_normal(4), copy.deepcopy(rng).standard_normal(4))


@pytest.fixture
def builds(monkeypatch):
    """Count the generators pllab.sampling builds."""
    calls = []
    real = np.random.default_rng

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sampling.np.random, "default_rng", counting)
    return calls


EXACT = [
    Quantization.hilbert(3),
    Quantization.concrete([np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]])]),
    Quantization.min(BaseNorm.euclidean(3)),
    Quantization.min(BaseNorm.lp(np.inf, weights=[1.0, 2.0])),
    Quantization.min(BaseNorm.lp(1.0, weights=[1.0, 2.0])),
    Quantization.min(BaseNorm.polytope(np.array([[1, 0.5], [-1, -0.5], [0, 1], [0, -1]]))),
    Quantization.lp(2.0, [1.0, 0.5], inner=Quantization.min(BaseNorm.euclidean(2))),
    Quantization.lp(1.0, [1.0, 0.5, 2.0]),
    Quantization.max(BaseNorm.lp(1.0, weights=[1.0, 1.5])),
    Quantization.tensor_p(BaseNorm.lp(1.0, weights=[1.0, 2.0]), Quantization.hilbert(2)),
]


@pytest.mark.parametrize("q", EXACT, ids=lambda q: q.kind)
def test_an_exact_amp_norm_builds_no_generator(builds, q):
    U = np.arange(1, 2 * q.dim + 1).reshape(2, q.dim) * (1 - 0.5j)
    nv = amp_norm(q, U)
    assert nv.exact
    assert builds == []


def test_a_searched_amp_norm_builds_its_generator_once(builds):
    q = Quantization.max(BaseNorm.euclidean(2))
    nv = amp_norm(q, np.array([[1.0, 2j], [0.5, -1.0]]))
    assert not nv.exact
    assert builds == [(entropy(0, "amp", "max"),)]


def test_the_whole_seed_enters_the_entropy():
    for seed in (0, 3, 2**32 - 1):
        high = make_rng(seed + 2**32, "amp", "max").standard_normal(4)
        assert not np.array_equal(high, make_rng(seed, "amp", "max").standard_normal(4))
    assert make_rng(2**40 + 1).random() == np.random.default_rng([2**40 + 1]).random()


def test_a_negative_seed_is_an_error():
    with pytest.raises(ValueError, match="non-negative"):
        make_rng(-1, "amp")
