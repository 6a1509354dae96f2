"""Base norm descriptors for the quantized spaces.

A descriptor fixes the norm of the underlying m-dimensional space E through
one of three recipes: a weighted lp norm, a euclidean norm, or a polytope
norm given by a finite symmetric set of dual-ball vertices.  Functionals are
identified with coefficient vectors through the bilinear pairing
f(x) = sum_j c_j x_j (no conjugation).

Besides evaluating norms, descriptors expose the dual-ball searches that the
injective-type quantized norm and the certificate machinery run on:

* ``dual_ball_maximize(A)``: sup of ||A c||_2 over the dual unit ball, with a
  certified [lower, upper] enclosure and a witness.  Exact for euclidean,
  polytope, weighted l-infinity and p = 2 bases, for l1 bases at one row of
  A (closed form), and from two rows for complex l1 bases at two
  coordinates (closed form) and real-mode l1 bases (sign enumeration over
  at most 16 coordinates; ``check_rows`` raises beyond); multi-start ascent
  for the rest, all starts iterated at once as the columns of one m x starts
  matrix.  A stack of matrices runs the l1 and lq rules matrix by matrix, in
  stack order, and the others in one step, each matrix rounding as alone.
* ``primal_align(c)``: a norming vector for a coefficient vector in the
  primal unit ball (Hoelder alignment).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hilbert import frobenius_norm, l2_norm, unit_scaled
from .wire import matrix_from_json, matrix_to_json, p_from_json, p_to_json

__all__ = ["BaseNorm", "DualMax"]

_SIGN_ENUM_LIMIT = 16
_ASCENT_ITERS = 60  # iteration cap of the multi-start dual-ball ascents
TIE_RTOL = 1e-14  # values this close to the best tie: ascent columns, bracket winners, lb-search moves
_PRIMAL_STARTS = 8  # starts of primal_ball_maximize


@dataclass(frozen=True)
class DualMax:
    """Result of a supremum search over a unit ball."""

    lower: float
    upper: float
    witness: np.ndarray
    exact: bool


def admit_real(x: np.ndarray, what: str = "element") -> np.ndarray:
    """The real part of a complex array x, as a complex array, once x passes
    the real-mode rule: no imaginary part above 1e-12 times the largest entry
    modulus, of x or of each matrix of a stack, so the verdict does not depend
    on scale.  A non-finite entry is reported before the rule."""
    if not np.isfinite(x).all():
        raise ValueError(f"{what} has non-finite entries")
    each = tuple(range(max(x.ndim - 2, 0), x.ndim))
    if np.any(np.abs(x.imag).max(axis=each, initial=0.0) > 1e-12 * np.abs(x).max(axis=each, initial=0.0)):
        raise ValueError(f"{what} must be real-valued in real-restricted mode")
    return x.real.astype(complex)


def check_p(p, what: str, w: np.ndarray) -> None:
    """Raise ValueError unless p is inf or 1 <= p with p / (p - 1) above 1 in
    floating point, and, for the positive finite weights w, at 1 < p < inf
    the dual weights w ** (-q / p), q = p / (p - 1), are positive and finite,
    and at p = 1 or inf each w and 1 / w is a finite normal float."""
    if p is None or not 1.0 <= p or (1.0 < p < np.inf and p / (p - 1.0) == 1.0):
        raise ValueError(f"{what} needs p = inf or 1 <= p below about 2**53, where p / (p - 1) > 1; got {p!r}")
    with np.errstate(all="ignore"):
        if 1.0 < p < np.inf:
            wq = w ** (-(p / (p - 1.0)) / p)
            if not np.all((wq > 0) & (wq < np.inf)):
                raise ValueError(f"{what} at p = {p!r} needs dual weights w ** (-q / p) that are positive and finite")
        elif not np.all((w >= 2.0**-1022) & (1.0 / w >= 2.0**-1022)):
            raise ValueError(f"{what} at p = {p!r} needs weights w and 1 / w that are normal floats")


def lp_sum(a: np.ndarray, p: float, w=None, axis: int = -1):
    """(sum w a^p)^(1/p) of a nonnegative array a along axis, for a finite p:
    the plain sum, unless a term may reach 2**1000 or a slice sums to a number
    that is not normal; such a slice is summed over a / max(a), scaled back."""
    if math.frexp(a.max())[1] * p + (0 if w is None else max(math.frexp(max(w.tolist()))[1], 0)) < 1000:
        s = (a**p if w is None else w * a**p).sum(axis=axis)
        if (s.min() if s.ndim else s) >= 2.0**-1022:
            return s ** (1.0 / p)
    with np.errstate(over="ignore"):
        s = (a**p if w is None else w * a**p).sum(axis=axis)
    t = np.where((s >= 2.0**-1022) & (s < np.inf), 1.0, a.max(axis=axis))
    t = np.expand_dims(np.where(t > 0, t, 1.0), axis)
    return np.squeeze(t, axis) * ((a / t) ** p * (1.0 if w is None else w)).sum(axis=axis) ** (1.0 / p)


@dataclass(frozen=True)
class BaseNorm:
    """Norm descriptor for a finite dimensional base space.

    kind is one of "lp", "euclidean", "polytope".  For "lp" the norm is
    (sum_j w_j |x_j|^p)^(1/p) with p in [1, inf]; for "polytope" the norm is
    max over the stored dual-ball vertices v of |v . x|.
    """

    kind: str
    dim: int
    p: Optional[float] = None
    weights: Optional[np.ndarray] = None
    vertices: Optional[np.ndarray] = None
    real: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("base dimension must be positive")
        if self.kind == "lp":
            w = np.ones(self.dim) if self.weights is None else np.asarray(self.weights, dtype=float)
            if w.shape != (self.dim,) or not np.all((w > 0) & (w < np.inf)):
                raise ValueError("lp base needs positive finite weights, one per coordinate")
            check_p(self.p, "lp base", w)
            object.__setattr__(self, "weights", w)
        elif self.kind == "euclidean":
            pass
        elif self.kind == "polytope":
            v = np.asarray(self.vertices, dtype=complex)
            if v.ndim != 2 or v.shape[1] != self.dim or v.shape[0] < 1 or not np.all(np.isfinite(v)):
                raise ValueError("polytope base needs a finite K x dim vertex matrix")
            if self.real:
                v = admit_real(v, "polytope vertices")
            # symmetry: each vertex must have its negation in the set
            for row in v:
                if np.min(np.linalg.norm(v + row[None, :], axis=1)) > 1e-9 * max(
                    1.0, np.linalg.norm(row)
                ):
                    raise ValueError("non-symmetric polytope descriptor")
            if np.linalg.matrix_rank(v) < self.dim:
                raise ValueError("polytope vertices do not span the dual space; norm degenerate")
            object.__setattr__(self, "vertices", v)
        else:
            raise ValueError(f"unknown base kind {self.kind!r}")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def lp(p: float, dim: int = None, weights=None, real: bool = False) -> "BaseNorm":
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
            dim = weights.shape[0] if dim is None else dim
        if dim is None:
            raise ValueError("give dim or weights")
        return BaseNorm(kind="lp", dim=int(dim), p=float(p), weights=weights, real=real)

    @staticmethod
    def euclidean(dim: int, real: bool = False) -> "BaseNorm":
        return BaseNorm(kind="euclidean", dim=int(dim), real=real)

    @staticmethod
    def polytope(vertices, real: bool = False) -> "BaseNorm":
        v = np.asarray(vertices, dtype=complex)
        return BaseNorm(kind="polytope", dim=v.shape[1], vertices=v, real=real)

    # -- validation helpers ---------------------------------------------

    def check_element(self, x: np.ndarray):
        x = np.asarray(x, dtype=complex)
        if x.shape[-1] != self.dim:
            raise ValueError(f"element has {x.shape[-1]} coordinates, base has {self.dim}")
        return admit_real(x) if self.real else x

    def check_rows(self, rows: int):
        """Raise ValueError when dual_ball_maximize cannot take a matrix with
        this many rows: a real l1 base enumerates signs from two rows and two
        coordinates up, over at most _SIGN_ENUM_LIMIT coordinates."""
        if self.real and self.kind == "lp" and self.p == 1.0 and rows > 1 and self.dim > _SIGN_ENUM_LIMIT:
            raise ValueError(f"real-mode l1 sign enumeration supports at most {_SIGN_ENUM_LIMIT} coordinates")

    # -- norms ------------------------------------------------------------

    def norm(self, x) -> float:
        x = self.check_element(x)
        # _norm's l2 formula, kept for the unit-scaled terms of projective._refine,
        # squares the entries, so gives 0 or inf at extreme scales
        return frobenius_norm(x) if self.kind == "euclidean" else self._norm(x)

    def _norm(self, x) -> float:
        """The norm of an element that check_element has passed."""
        if self.kind == "euclidean":
            return l2_norm(x)
        if self.kind == "lp":
            a = np.abs(x)
            return float((self.weights * a).max() if self.p == math.inf else lp_sum(a, self.p, self.weights))
        return float(np.max(np.abs(self.vertices @ x)))

    def dual_norm(self, c) -> Optional[float]:
        """Exact dual norm of the functional with coefficients c: its norm
        under dual_descriptor(), which holds the lp duality formulas.

        Returns None for polytope bases (the gauge of the vertex hull has no
        descriptor here); callers fall back to the search machinery.
        """
        dd = self.dual_descriptor()
        return None if dd is None else dd.norm(c)

    def dual_descriptor(self) -> Optional["BaseNorm"]:
        """Descriptor of the dual norm, when it is again one of the known kinds."""
        return self._dual_descriptor

    @functools.cached_property
    def _dual_descriptor(self) -> Optional["BaseNorm"]:
        """dual_descriptor(), built and checked once per descriptor."""
        if self.kind == "euclidean":
            return self
        if self.kind == "polytope":
            return None
        w = self.weights
        if self.p == 1.0:
            return BaseNorm.lp(np.inf, weights=1.0 / w, real=self.real)
        if np.isinf(self.p):
            return BaseNorm.lp(1.0, weights=1.0 / w, real=self.real)
        q = self.p / (self.p - 1.0)
        return BaseNorm.lp(q, weights=w ** (-q / self.p), real=self.real)

    # -- norming vectors ---------------------------------------------------

    def primal_align(self, c) -> np.ndarray:
        """Vector x of norm <= 1 maximizing |c . x|; exact for lp and euclidean.

        For polytope bases the returned vector is feasible but only a best
        effort (vertex-dual guesses), which is all the generic searches need.
        """
        c = self.check_element(c)
        if not np.any(c):
            x = np.zeros(self.dim, dtype=complex)
            return x
        if self.kind == "euclidean":
            return unit_scaled(np.conj(c), frobenius_norm(c))
        if self.kind == "lp":
            w = self.weights
            a = np.abs(c)
            if self.p == 1.0:
                j = int(np.argmax(a / w))
                x = np.zeros(self.dim, dtype=complex)
                x[j] = np.conj(c[j]) / a[j] / w[j]
                return x
            if np.isinf(self.p):
                return np.where(a > 0, np.conj(c) / np.where(a > 0, a, 1.0), 0.0) / w
            return self._holder_align(c[:, None])[:, 0]
        # polytope: the first best of the conjugate and the coordinate directions, scaled
        cands = [np.conj(c), *np.eye(self.dim, dtype=complex)]
        x = max(cands, key=lambda x: abs(np.dot(c, x)) / self.norm(x))
        return x / self.norm(x)

    def _holder_align(self, C: np.ndarray) -> np.ndarray:
        """primal_align of each column of C, for an lp base with 1 < p < inf."""
        s = self.weights[:, None] ** (-1.0 / self.p)
        h = np.abs(C) * s
        q = self.p / (self.p - 1.0)
        hn = lp_sum(h, q, axis=0)[None, :]
        t = (h / np.where(hn > 0, hn, 1.0)) ** (q - 1.0)
        return _phases(np.conj(C)) * t * s

    # -- ball suprema -------------------------------------------------------

    def dual_ball_maximize(self, A, rng, starts: int = 8) -> DualMax:
        """sup of ||A c||_2 over the dual unit ball of this base.

        A is a d x m matrix, or an N x d x m stack, each matrix searched as
        alone, into a DualMax of (N,) and (N, m) arrays: the l1 and lq rules
        run a stack matrix by matrix, in stack order, the others in one step.
        A weighted l1 base at one row of A, or a complex one at two
        coordinates, takes a closed form, exact and drawing nothing from rng.
        The multi-start ascents (weighted l1 polydisc, lq ball) run all starts
        as columns of one m x starts matrix; a column stops as a lone start
        would (phases settled, or no gain above 1e-15), and the last column
        within 1e-14 relative of the best is returned (_best_column).  Each
        matrix is admitted by check_element and check_rows: a real base takes
        a real A only, valued as its real part.
        """
        A = self.check_element(A)
        self.check_rows(A.shape[-2])
        lower, upper, c, exact = self._dual_max(A, rng, starts)
        if A.ndim == 2:
            return DualMax(float(lower), float(upper), c, exact)
        return DualMax(lower, upper, c, exact)

    def _dual_max(self, A, rng, starts) -> tuple:
        """(lower, upper, witnesses, exact) of dual_ball_maximize."""
        if self.kind == "euclidean":
            val, c = _top_direction(A)
            return val, val, c, True
        if self.kind == "polytope":
            vals = np.linalg.norm(A @ self.vertices.T, axis=-2)
            v = vals.max(axis=-1)
            return v, v, self.vertices[vals.argmax(axis=-1)].copy(), True
        w = self.weights
        if np.isinf(self.p):
            vals = w * np.linalg.norm(A, axis=-2)
            k = vals.argmax(axis=-1)
            ix = (*np.indices(k.shape, sparse=True), k)
            c = np.zeros(vals.shape, dtype=complex)
            c[ix] = w[k]
            return vals[ix], vals[ix], c, True
        if self.p == 2.0:
            # dual ball {sum |c_j|^2 / w_j <= 1} is the image of the unit
            # sphere under c = sqrt(w) z
            val, z = _top_direction(A * w**0.5)
            return val, val, z * w**0.5, True
        rule = self._dual_ball_max_l1 if self.p == 1.0 else self._dual_ball_max_lq
        if A.ndim == 2:
            return rule(A, rng, starts)
        lower, upper, c, exact = zip(*(rule(a, rng, starts) for a in A))
        return np.array(lower), np.array(upper), np.array(c), exact[0]

    def _dual_ball_max_l1(self, A, rng, starts) -> tuple:
        # dual ball is the weighted polydisc {|c_j| <= w_j}
        if self.real:
            A = A.real  # real phases are exact signs
        w = self.weights
        B = A * w
        d, m = B.shape
        if m == 1 or d == 1 or (m == 2 and not self.real):
            # closed forms: one coordinate takes phase 1, one row aligns every
            # phase (value sum_j |B_0j|), two coordinates the Gram phase
            # (sqrt(Q11 + Q22 + 2 |Q12|), Q = B^* B), valued scaled: the dual
            # weights 1 / w of an l-infinity base with w near 1e-300 square past
            # the float range
            z = _phases(B[0].conj()) if d == 1 and m > 1 else np.ones(m, dtype=B.dtype)
            if m == 2 and d > 1:
                z[1] = _phases(B[:, 1].conj() @ B[:, 0])
            v = frobenius_norm(B @ z)
            return v, v, np.asarray(z * w, dtype=complex), True
        if self.real:
            grid = np.array(np.meshgrid(*([[-1.0, 1.0]] * (m - 1)), indexing="ij")).reshape(m - 1, -1)
            signs = np.vstack([np.ones((1, grid.shape[1])), grid])
            vals = np.linalg.norm(B @ signs, axis=0)
            k = int(np.argmax(vals))
            return vals[k], vals[k], (signs[:, k] * w).astype(complex), True
        Q = B.conj().T @ B
        # starts as columns: ones, the phases of the Gram column of the
        # heaviest coordinate, then random phases
        j = int(np.argmax(np.linalg.norm(B, axis=0)))
        g = rng.standard_normal((max(starts - 2, 0), 2, m))
        Z = np.column_stack([np.ones(m), _phases(B.conj().T @ B[:, j]), _phases(g[:, 0] + 1j * g[:, 1]).T])[:, :starts]
        live = np.arange(Z.shape[1])
        for _ in range(_ASCENT_ITERS):
            Zl = Z[:, live]
            Zn = _phases(Q @ Zl)
            Z[:, live] = Zn
            # a column stops once np.allclose(z_new, z, atol=1e-14) holds for it
            live = live[np.any(np.abs(Zn - Zl) > 1e-14 + 1e-5 * np.abs(Zl), axis=0)]
            if not live.size:
                break
        vals = np.linalg.norm(B @ Z, axis=0)
        k = _best_column(vals)
        upper = np.minimum(np.sum(np.linalg.norm(B, axis=0)), np.linalg.svd(B, compute_uv=False)[0] * np.sqrt(m))
        return vals[k], np.maximum(upper, vals[k]), Z[:, k] * w, False

    def _dual_ball_max_lq(self, A, rng, starts) -> tuple:
        dd = self.dual_descriptor()  # an lq(w') descriptor
        q, wq = dd.p, dd.weights
        # starts as columns: the aligner of the summed rows, then random
        # directions scaled to the dual sphere
        g = rng.standard_normal((starts - 1, 2, self.dim))
        R = g[:, 0] + 1j * g[:, 1]
        c0 = np.sum(A, axis=0).conj() + 1e-30
        if self.real:
            R, c0 = R.real.astype(complex), c0.real.astype(complex)
        if R.size:
            R = R / np.maximum(lp_sum(np.abs(R), q, wq), 1e-30)[:, None]
        C = np.concatenate([dd._holder_align(c0[:, None]), R.T], axis=-1)
        Y = A @ C
        vals = np.linalg.norm(Y, axis=0)
        live = np.flatnonzero(vals > 0)
        for _ in range(_ASCENT_ITERS):
            if not live.size:
                break
            Cn = dd._holder_align(np.conj(A.conj().T @ (Y[:, live] / vals[live])))
            Yn = A @ Cn
            vn = np.linalg.norm(Yn, axis=0)
            # a column that gains no more than 1e-15 keeps its C and value, and stops
            up = vn > vals[live] + 1e-15
            live = live[up]
            C[:, live], Y[:, live], vals[live] = Cn[:, up], Yn[:, up], vn[up]
        k = _best_column(vals)
        embed = (np.max(wq ** (-1.0 / q)) if q <= 2.0
                 else np.sum(wq ** (-2.0 / (q - 2.0))) ** ((q - 2.0) / (2.0 * q)))
        col_bound = np.sum(wq ** (-1.0 / q) * np.linalg.norm(A, axis=0))
        upper = np.minimum(np.linalg.svd(A, compute_uv=False)[0] * embed, col_bound)
        return vals[k], np.maximum(upper, vals[k]), C[:, k], False

    def primal_ball_maximize(self, A, rng) -> DualMax:
        """sup of ||A x||_2 over the primal unit ball of this base."""
        dd = self.dual_descriptor()
        if dd is not None:
            return dd.dual_ball_maximize(A, rng=rng, starts=_PRIMAL_STARTS)
        A = np.asarray(A, dtype=complex)
        # polytope primal ball: crude but certified enclosure
        v = self.vertices
        sigma_min = np.linalg.svd(v, compute_uv=False)[-1]
        upper = float(np.linalg.norm(A, 2)) * np.sqrt(v.shape[0]) / max(sigma_min, 1e-30)
        best_val, best_x = -1.0, np.zeros(self.dim, dtype=complex)
        for s in range(_PRIMAL_STARTS + self.dim):
            if s < self.dim:
                x = np.eye(self.dim, dtype=complex)[s]
            else:
                x = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
            x = x / self.norm(x)
            val = float(np.linalg.norm(A @ x))
            if val > best_val:
                best_val, best_x = val, x
        return DualMax(best_val, max(upper, best_val), best_x, False)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "dim": self.dim}
        if self.real:
            out["real"] = True
        if self.kind == "lp":
            out["p"] = p_to_json(self.p)
            out["weights"] = [float(w) for w in self.weights]
        elif self.kind == "polytope":
            out["vertices"] = matrix_to_json(self.vertices)
        return out

    @staticmethod
    def from_dict(d: dict) -> "BaseNorm":
        kind = d["kind"]
        real = bool(d.get("real", False))
        if kind == "lp":
            return BaseNorm.lp(p_from_json(d["p"]), dim=d["dim"], weights=d.get("weights"), real=real)
        if kind == "euclidean":
            return BaseNorm.euclidean(d["dim"], real=real)
        if kind == "polytope":
            return BaseNorm.polytope(matrix_from_json(d["vertices"]), real=real)
        raise ValueError(f"unknown base kind {kind!r}")


def _best_column(vals: np.ndarray) -> int:
    """Index of the last ascent column within TIE_RTOL of the best value.

    Columns that reach one optimum along different paths tie up to rounding
    but stop at witnesses that differ well above it, so a plain argmax lets
    rounding pick the witness, and with it every search that continues from
    it: a rescaled element could move the l lower bound by 1e-11 relative.
    The last tied column is the later start, in the l1 ascent the Gram
    phases (at two coordinates the optimum, which the closed form of
    _dual_ball_max_l1 returns before any ascent).
    """
    return int(np.flatnonzero(vals >= vals.max() * (1.0 - TIE_RTOL))[-1])


def _beats(val: float, best: float) -> bool:
    """val > best + TIE_RTOL |best|: of values tied up to rounding, maxima or negated minima, the earlier stays."""
    return val > best + TIE_RTOL * abs(best)


def _keep_best(scored, best: float = -math.inf, best_xs=None, enough: float = math.inf) -> tuple:
    """(best, best_xs) over the (value, xs) pairs of scored after any best passed in: the first
    is kept, then a later one only when it _beats the best, stored as a Python float.  Once the
    best reaches enough, scored is asked for no further pair, so a lazy one draws no more.  A
    least value is the best of the negated values."""
    for val, xs in scored:
        if best_xs is None or _beats(val, best):
            best, best_xs = float(val), xs
        if best >= enough:
            break
    return best, best_xs


def _phases(z: np.ndarray) -> np.ndarray:
    a = np.abs(z)
    return np.where(a > 0, z / np.where(a > 0, a, 1.0), 1.0)


def _top_direction(A: np.ndarray):
    """Largest singular value of A, a matrix or a stack, and a right vector c with ||A c|| = sigma_max."""
    if A.size == 0:
        return np.zeros(A.shape[:-2]), np.zeros(A.shape[:-2] + A.shape[-1:], dtype=complex)
    _, s, vh = np.linalg.svd(A, full_matrices=False)
    return s[..., 0], vh[..., 0, :].conj()
