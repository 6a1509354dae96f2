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
    name the same stream.
    """
    labels = (s.item() if isinstance(s, np.generic) else s for s in stream)
    entropy = [int(seed) & 0xFFFFFFFF] + [zlib.crc32(repr(s).encode()) for s in labels]
    return np.random.default_rng(entropy)


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

