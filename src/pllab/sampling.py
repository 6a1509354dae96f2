"""Seeded sampling helpers.

Every stochastic search in the package derives its generator from an integer
seed plus a stream label, so identical jobs reproduce identical numbers
regardless of evaluation order.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = [
    "make_rng",
    "random_complex",
    "random_unit",
    "random_orthonormal",
]


def make_rng(seed: int, *stream) -> np.random.Generator:
    """Deterministic generator for (seed, stream...).

    Stream labels are hashed with crc32 of their repr, not the builtin hash,
    so the generator sequence is identical across interpreter runs; a numpy
    scalar label hashes as the Python value it holds, so np.int64(1) and 1
    name the same stream.  The seed must be a non-negative integer and enters
    the entropy whole.  The generator is built on its first attribute access
    (see _Deferred), and then draws exactly what
    np.random.default_rng(entropy) draws.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    labels = (s.item() if isinstance(s, np.generic) else s for s in stream)
    return _Deferred([seed] + [zlib.crc32(repr(s).encode()) for s in labels])


class _Deferred:
    """np.random.default_rng(entropy), built on its first attribute access.

    Many callers take a generator and never draw from it (the exact kinds of
    amp_norm, the closed forms), and building one costs more than an exact
    evaluation.  Every attribute read through the stand-in is kept on it, so
    later reads are plain instance lookups.  Dunder names are not delegated,
    so copying and pickling see an ordinary object.
    """

    def __init__(self, entropy: list):
        self._entropy = entropy

    def __getattr__(self, name):
        if name.startswith("__"):
            raise AttributeError(name)
        d = self.__dict__
        if "_gen" not in d:
            d["_gen"] = np.random.default_rng(d["_entropy"])
        value = d[name] = getattr(d["_gen"], name)
        return value


def random_complex(rng, *shape, real: bool = False) -> np.ndarray:
    z = rng.standard_normal(shape)
    if not real:
        z = z + 1j * rng.standard_normal(shape)
    return np.asarray(z, dtype=complex)


def random_unit(rng, d: int) -> np.ndarray:
    v = random_complex(rng, d)
    n = np.linalg.norm(v)
    while n < 1e-12:
        v = random_complex(rng, d)
        n = np.linalg.norm(v)
    return v / n


def random_orthonormal(rng, d: int, k: int) -> np.ndarray:
    """d x k matrix with orthonormal columns (Haar-ish via QR)."""
    if k > d:
        raise ValueError("cannot fit more orthonormal vectors than the dimension")
    g = random_complex(rng, d, k)
    q, r = np.linalg.qr(g)
    # fix the phase so the distribution does not depend on the QR convention
    ph = np.diagonal(r).copy()
    ph = np.where(np.abs(ph) > 0, ph / np.abs(ph), 1.0)
    return q * np.conj(ph)[None, :]

