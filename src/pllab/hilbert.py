"""Finite truncations of the separable Hilbert space H and its diamond calculus.

Everything downstream works with finite coordinate blocks: a vector in the
d-dimensional truncation is a length-d complex array, an operator between
truncations is a rectangular complex matrix, and an element of the
amplification H (x) E is a d x m coefficient matrix (one column per base
vector of E).

The diamond product realizes the fixed unitary identification of H (x) H
with H through a pairing bijection on coordinate indices.  Two schemes are
supported; they differ by a permutation of coordinates, so every norm built
on top is scheme-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PairingMap",
    "GradedVector",
    "OperatorBlock",
    "AmplifiedElement",
    "diamond_vec",
    "diamond_op",
    "diamond_amp",
    "vec_diamond_amp",
    "rank_one",
    "op_norm",
    "frobenius_norm",
    "module_action",
    "coeffs_of",
    "block_of",
]

_SCHEMES = ("row-major", "column-major")


def coeffs_of(u) -> np.ndarray:
    """Coefficient matrix of an amplified element, as a 2-d complex array."""
    if isinstance(u, AmplifiedElement):
        return u.coeffs
    arr = np.asarray(u, dtype=complex)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError("amplified element must be a d x m coefficient matrix")
    return arr


def block_of(a) -> np.ndarray:
    """Matrix of an operator block, as a 2-d complex array."""
    if isinstance(a, OperatorBlock):
        return a.entries
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2:
        raise ValueError("operator block must be a 2-d matrix")
    return arr


def _vec(x) -> np.ndarray:
    if isinstance(x, GradedVector):
        return x.coeffs
    arr = np.asarray(x, dtype=complex)
    if arr.ndim != 1:
        raise ValueError("expected a coordinate vector")
    return arr


@dataclass(frozen=True)
class PairingMap:
    """Bijection (i, j) -> flat index behind the identification H (x) H = H.

    scheme "row-major" sends (i, j) over dims (d1, d2) to i*d2 + j, which is
    the ordering numpy.kron produces; "column-major" sends it to i + j*d1.
    """

    scheme: str = "row-major"

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown pairing scheme {self.scheme!r}")

    def flat(self, d1: int, d2: int) -> np.ndarray:
        """Array of shape (d1, d2) holding the flat index of each pair."""
        i = np.arange(d1)[:, None]
        j = np.arange(d2)[None, :]
        if self.scheme == "row-major":
            return i * d2 + j
        return i + j * d1

    def permutation(self, d1: int, d2: int) -> np.ndarray:
        """perm such that out[perm] = row_major_out reproduces this scheme.

        Equivalently out[self.flat(i,j)] = src[i*d2+j]; the returned array
        maps flat positions of this scheme to row-major positions.
        """
        perm = np.empty(d1 * d2, dtype=int)
        perm[self.flat(d1, d2).ravel()] = np.arange(d1 * d2)
        return perm


@dataclass(frozen=True)
class GradedVector:
    """Vector in the d-dimensional truncation of H."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.ndim != 1:
            raise ValueError("GradedVector holds a 1-d coordinate array")
        object.__setattr__(self, "coeffs", arr)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def pad(self, dim: int) -> "GradedVector":
        """Zero-pad into a larger truncation; the norm is unchanged."""
        if dim < self.dim:
            raise ValueError("cannot pad to a smaller dimension")
        out = np.zeros(dim, dtype=complex)
        out[: self.dim] = self.coeffs
        return GradedVector(out)


@dataclass(frozen=True)
class OperatorBlock:
    """Bounded operator between truncations, stored as a cols -> rows matrix."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        if arr.ndim != 2:
            raise ValueError("OperatorBlock holds a 2-d matrix")
        object.__setattr__(self, "entries", arr)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def norm(self) -> float:
        return op_norm(self.entries)

    def adjoint(self) -> "OperatorBlock":
        return OperatorBlock(self.entries.conj().T)

    def compose(self, other: "OperatorBlock") -> "OperatorBlock":
        return OperatorBlock(block_of(self) @ block_of(other))

    def apply(self, x) -> GradedVector:
        v = _vec(x)
        if v.shape[0] != self.cols:
            raise ValueError("operator/vector dimension mismatch")
        return GradedVector(self.entries @ v)


@dataclass(frozen=True)
class AmplifiedElement:
    """Element of H (x) E for a d-truncation of H and an m-dimensional E.

    coeffs[i, j] is the coordinate of the j-th base vector of E along the
    i-th basis vector of H, so column j is the H-vector paired with e_j.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.ndim != 2:
            raise ValueError("AmplifiedElement holds a d x m coefficient matrix")
        object.__setattr__(self, "coeffs", arr)

    @property
    def d(self) -> int:
        return self.coeffs.shape[0]

    @property
    def m(self) -> int:
        return self.coeffs.shape[1]

    def pad(self, d: int) -> "AmplifiedElement":
        if d < self.d:
            raise ValueError("cannot pad to a smaller truncation")
        out = np.zeros((d, self.m), dtype=complex)
        out[: self.d] = self.coeffs
        return AmplifiedElement(out)


def diamond_vec(xi, eta, pairing: PairingMap = PairingMap()) -> np.ndarray:
    """Diamond product of two H-vectors; satisfies ||xi <> eta|| = ||xi|| ||eta||."""
    x = _vec(xi)
    y = _vec(eta)
    out = np.empty(x.shape[0] * y.shape[0], dtype=complex)
    out[pairing.flat(x.shape[0], y.shape[0])] = np.multiply.outer(x, y)
    return out


def diamond_op(a, b, pairing: PairingMap = PairingMap()) -> np.ndarray:
    """Diamond product of operator blocks.

    The result acts on diamonds by (a <> b)(xi <> eta) = a(xi) <> b(eta) and
    its norm is the product of the factor norms.
    """
    am = block_of(a)
    bm = block_of(b)
    k = np.kron(am, bm)
    pr = pairing.flat(am.shape[0], bm.shape[0]).ravel()
    pc = pairing.flat(am.shape[1], bm.shape[1]).ravel()
    out = np.empty_like(k)
    out[np.ix_(pr, pc)] = k
    return out


def diamond_amp(u, v, pairing: PairingMap = PairingMap()) -> np.ndarray:
    """u <> v for amplified elements over E and F, landing in H (x) (E (x) F).

    The H slot is paired by `pairing`; the base slot of E (x) F always uses
    the fixed row-major layout (jE, jF) -> jE*mF + jF, which is part of the
    data format rather than a tunable.
    """
    U = coeffs_of(u)
    V = coeffs_of(v)
    du, mu = U.shape
    dv, mv = V.shape
    t = np.einsum("ij,kl->ikjl", U, V).reshape(du * dv, mu * mv)
    out = np.empty_like(t)
    out[pairing.flat(du, dv).ravel()] = t
    return out


def vec_diamond_amp(xi, u, pairing: PairingMap = PairingMap()) -> np.ndarray:
    """xi <> u for an H-vector and an amplified element; stays over the same base."""
    x = _vec(xi)
    U = coeffs_of(u)
    t = np.einsum("i,kj->ikj", x, U).reshape(x.shape[0] * U.shape[0], U.shape[1])
    out = np.empty_like(t)
    out[pairing.flat(x.shape[0], U.shape[0]).ravel()] = t
    return out


def rank_one(x, y) -> np.ndarray:
    """Operator z -> <z, y> x; the inner product is conjugate-linear in y."""
    return np.multiply.outer(_vec(x), _vec(y).conj())


def op_norm(a) -> float:
    """Operator norm (largest singular value) of a block."""
    m = block_of(a)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def frobenius_norm(a) -> float:
    """Frobenius norm of an array of finite entries of any magnitude.

    np.linalg.norm squares the entries, so it returns 0 or inf for some such
    arrays; those are rescaled by their largest entry first, without a numpy
    overflow warning from the first try.  Raises
    ValueError for NaN or infinite entries, or a norm beyond the float range.
    """
    with np.errstate(over="ignore", under="ignore"):
        n = float(np.linalg.norm(a))
    if 0.0 < n < math.inf:
        return n
    big = float(np.max(np.abs(a), initial=0.0))
    if 0.0 < big < math.inf:
        n = big * float(np.linalg.norm(a / big))
    if not math.isfinite(n):
        raise ValueError("element has non-finite entries or a Frobenius norm beyond the float range")
    return n


def module_action(a, u) -> np.ndarray:
    """Left module action of an operator block on an amplified element.

    a acts on the H slot only: a . (xi x) = a(xi) x, columnwise on coeffs.
    """
    am = block_of(a)
    U = coeffs_of(u)
    if am.shape[1] != U.shape[0]:
        raise ValueError(
            f"operator acts on a {am.shape[1]}-truncation but the element lives in {U.shape[0]}"
        )
    return am @ U
