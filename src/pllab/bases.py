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
  polytope, weighted l-infinity, p = 2, and real-mode l1 bases (sign
  enumeration up to 16 coordinates); multi-start ascent otherwise, with all
  starts iterated at once as the columns of one m x starts matrix.
* ``primal_align(c)``: a norming vector for a coefficient vector in the
  primal unit ball (Hoelder alignment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .wire import matrix_from_json, matrix_to_json, p_from_json, p_to_json

__all__ = ["BaseNorm", "DualMax"]

_REAL_TOL = 1e-12
_SIGN_ENUM_LIMIT = 16


@dataclass(frozen=True)
class DualMax:
    """Result of a supremum search over a unit ball."""

    lower: float
    upper: float
    witness: np.ndarray
    exact: bool


def _require_real(arr: np.ndarray, what: str):
    if np.abs(np.asarray(arr).imag).max(initial=0.0) > _REAL_TOL:
        raise ValueError(f"{what} must be real-valued in real-restricted mode")


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
            if self.p is None or not (1.0 <= self.p):
                raise ValueError("lp base needs p in [1, inf]")
            w = np.ones(self.dim) if self.weights is None else np.asarray(self.weights, dtype=float)
            if w.shape != (self.dim,) or not np.all((w > 0) & (w < np.inf)):
                raise ValueError("lp base needs positive finite weights, one per coordinate")
            object.__setattr__(self, "weights", w)
        elif self.kind == "euclidean":
            pass
        elif self.kind == "polytope":
            v = np.asarray(self.vertices, dtype=complex)
            if v.ndim != 2 or v.shape[1] != self.dim or v.shape[0] < 1 or not np.all(np.isfinite(v)):
                raise ValueError("polytope base needs a finite K x dim vertex matrix")
            if self.real:
                _require_real(v, "polytope vertices")
                v = v.real.astype(complex)
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
        if self.real:
            _require_real(x, "element")
        return x

    # -- norms ------------------------------------------------------------

    def norm(self, x) -> float:
        x = self.check_element(x)
        if self.kind == "euclidean":
            return float(np.linalg.norm(x))
        if self.kind == "lp":
            a = np.abs(x)
            if np.isinf(self.p):
                return float(np.max(self.weights * a))
            return float(np.sum(self.weights * a**self.p) ** (1.0 / self.p))
        return float(np.max(np.abs(self.vertices @ x)))

    def dual_norm(self, c) -> Optional[float]:
        """Exact dual norm of the functional with coefficients c, when closed form.

        Returns None for polytope bases (the gauge of the vertex hull has no
        closed form here); callers fall back to the search machinery.
        """
        c = self.check_element(c)
        if self.kind == "euclidean":
            return float(np.linalg.norm(c))
        if self.kind == "polytope":
            return None
        a = np.abs(c)
        w = self.weights
        if self.p == 1.0:
            return float(np.max(a / w))
        if np.isinf(self.p):
            return float(np.sum(a / w))
        q = self.p / (self.p - 1.0)
        return float(np.sum((a * w ** (-1.0 / self.p)) ** q) ** (1.0 / q))

    def dual_descriptor(self) -> Optional["BaseNorm"]:
        """Descriptor of the dual norm, when it is again one of the known kinds."""
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
        phase = np.where(np.abs(c) > 0, np.conj(c) / np.where(np.abs(c) > 0, np.abs(c), 1.0), 0.0)
        if self.kind == "euclidean":
            return np.conj(c) / np.linalg.norm(c)
        if self.kind == "lp":
            w = self.weights
            a = np.abs(c)
            if self.p == 1.0:
                j = int(np.argmax(a / w))
                x = np.zeros(self.dim, dtype=complex)
                x[j] = phase[j] / w[j]
                return x
            if np.isinf(self.p):
                return phase / w
            return self._holder_align(c[:, None])[:, 0]
        # polytope: try the scaled conjugate and coordinate directions
        cands = [np.conj(c)]
        cands.extend(np.eye(self.dim, dtype=complex))
        best, best_val = None, -1.0
        for x in cands:
            n = self.norm(x)
            if n <= 0:
                continue
            val = abs(np.dot(c, x)) / n
            if val > best_val:
                best, best_val = x / n, val
        return best

    def _holder_align(self, C: np.ndarray) -> np.ndarray:
        """primal_align of each column of C, for an lp base with 1 < p < inf."""
        s = self.weights[:, None] ** (-1.0 / self.p)
        h = np.abs(C) * s
        q = self.p / (self.p - 1.0)
        hn = np.linalg.norm(h, q, axis=0)
        t = (h / np.where(hn > 0, hn, 1.0)) ** (q - 1.0)
        return _phases(np.conj(C)) * t * s

    # -- ball suprema -------------------------------------------------------

    def dual_ball_maximize(self, A, rng=None, starts: int = 8, iters: int = 60) -> DualMax:
        """sup of ||A c||_2 over the dual unit ball of this base.

        The multi-start ascents (weighted l1 polydisc, lq ball) run all starts
        as columns of one m x starts matrix; a column stops under the same rule
        as a lone start would (phases settled, or no gain above 1e-15), and the
        first of the best columns is returned.
        """
        A = np.asarray(A, dtype=complex)
        if A.shape[1] != self.dim:
            raise ValueError("matrix columns must match the base dimension")
        if self.kind == "euclidean":
            val, c = _top_direction(A)
            return DualMax(val, val, c, True)
        if self.kind == "polytope":
            vals = np.linalg.norm(A @ self.vertices.T, axis=0)
            k = int(np.argmax(vals))
            return DualMax(float(vals[k]), float(vals[k]), self.vertices[k].copy(), True)
        w = self.weights
        if np.isinf(self.p):
            vals = w * np.linalg.norm(A, axis=0)
            k = int(np.argmax(vals))
            c = np.zeros(self.dim, dtype=complex)
            c[k] = w[k]
            return DualMax(float(vals[k]), float(vals[k]), c, True)
        if self.p == 2.0:
            # dual ball {sum |c_j|^2 / w_j <= 1} is the image of the unit
            # sphere under c = sqrt(w) z
            B = A * (w**0.5)[None, :]
            val, z = _top_direction(B)
            return DualMax(val, val, z * w**0.5, True)
        if self.p == 1.0:
            return self._dual_ball_max_l1(A, rng, starts, iters)
        return self._dual_ball_max_lq(A, rng, starts, iters)

    def _dual_ball_max_l1(self, A, rng, starts, iters) -> DualMax:
        # dual ball is the weighted polydisc {|c_j| <= w_j}
        w = self.weights
        B = A * w[None, :]
        m = self.dim
        if self.real:
            if m > _SIGN_ENUM_LIMIT:
                raise ValueError(
                    f"real-mode l1 sign enumeration supports at most {_SIGN_ENUM_LIMIT} coordinates"
                )
            _require_real(A, "matrix")
            if m > 1:
                grid = np.array(
                    np.meshgrid(*([[-1.0, 1.0]] * (m - 1)), indexing="ij")
                ).reshape(m - 1, -1)
                signs = np.vstack([np.ones((1, grid.shape[1])), grid])
            else:
                signs = np.ones((1, 1))
            vals = np.linalg.norm(B.real @ signs, axis=0)
            k = int(np.argmax(vals))
            c = signs[:, k] * w
            return DualMax(float(vals[k]), float(vals[k]), c.astype(complex), True)
        if m == 1:
            v = float(np.linalg.norm(B[:, 0]))
            return DualMax(v, v, w.astype(complex).copy(), True)
        rng = np.random.default_rng(0) if rng is None else rng
        Q = B.conj().T @ B
        # starts as columns: ones, the phases of the Gram column of the
        # heaviest coordinate, then random phases
        j = int(np.argmax(np.linalg.norm(B, axis=0)))
        g = rng.standard_normal((max(starts - 2, 0), 2, m))
        Z = np.column_stack(
            [np.ones(m), _phases(B.conj().T @ B[:, j]), _phases(g[:, 0] + 1j * g[:, 1]).T]
        )[:, :starts]
        live = np.arange(starts)
        for _ in range(iters):
            Zl = Z[:, live]
            Zn = _phases(Q @ Zl)
            Z[:, live] = Zn
            # a column stops once np.allclose(z_new, z, atol=1e-14) holds for it
            live = live[np.any(np.abs(Zn - Zl) > 1e-14 + 1e-5 * np.abs(Zl), axis=0)]
            if not live.size:
                break
        vals = np.linalg.norm(B @ Z, axis=0)
        k = int(np.argmax(vals))
        best_val, best_z = float(vals[k]), Z[:, k]
        upper = min(
            float(np.sum(np.linalg.norm(B, axis=0))),
            float(np.linalg.norm(B, 2)) * np.sqrt(m),
        )
        upper = max(upper, best_val)
        return DualMax(best_val, upper, best_z * w, False)

    def _dual_ball_max_lq(self, A, rng, starts, iters) -> DualMax:
        dd = self.dual_descriptor()  # an lq(w') descriptor
        rng = np.random.default_rng(0) if rng is None else rng
        q, wq = dd.p, dd.weights
        # starts as columns: the aligner of the summed rows, then random
        # directions scaled to the dual sphere
        g = rng.standard_normal((starts - 1, 2, self.dim))
        R = (g[:, 0] + 1j * g[:, 1]).T
        if self.real:
            R = R.real.astype(complex)
        R = R / np.maximum(np.sum(wq[:, None] * np.abs(R) ** q, axis=0) ** (1.0 / q), 1e-30)
        C = np.column_stack([dd.primal_align(np.sum(A, axis=0).conj() + 1e-30), R])
        Y = A @ C
        vals = np.linalg.norm(Y, axis=0)
        live = np.flatnonzero(vals > 0)
        for _ in range(iters):
            if not live.size:
                break
            Cn = dd._holder_align(np.conj(A.conj().T @ (Y[:, live] / vals[live])))
            Yn = A @ Cn
            vn = np.linalg.norm(Yn, axis=0)
            up = vn > vals[live] + 1e-15
            live = live[up]
            C[:, live], Y[:, live], vals[live] = Cn[:, up], Yn[:, up], vn[up]
        k = int(np.argmax(vals))
        best_val, best_c = float(vals[k]), C[:, k]
        if q <= 2.0:
            embed = float(np.max(wq ** (-1.0 / q)))
        else:
            embed = float(np.sum(wq ** (-2.0 / (q - 2.0))) ** ((q - 2.0) / (2.0 * q)))
        col_bound = float(np.sum(wq ** (-1.0 / q) * np.linalg.norm(A, axis=0)))
        upper = max(min(float(np.linalg.norm(A, 2)) * embed, col_bound), best_val)
        return DualMax(best_val, upper, best_c, False)

    def primal_ball_maximize(self, A, rng=None, starts: int = 8, iters: int = 60) -> DualMax:
        """sup of ||A x||_2 over the primal unit ball of this base."""
        dd = self.dual_descriptor()
        if dd is not None:
            return dd.dual_ball_maximize(A, rng=rng, starts=starts, iters=iters)
        A = np.asarray(A, dtype=complex)
        # polytope primal ball: crude but certified enclosure
        v = self.vertices
        sigma_min = np.linalg.svd(v, compute_uv=False)[-1]
        upper = float(np.linalg.norm(A, 2)) * np.sqrt(v.shape[0]) / max(sigma_min, 1e-30)
        best_val, best_x = -1.0, np.zeros(self.dim, dtype=complex)
        rng = np.random.default_rng(0) if rng is None else rng
        for s in range(starts + self.dim):
            if s < self.dim:
                x = np.eye(self.dim, dtype=complex)[s]
            else:
                x = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
            n = self.norm(x)
            if n <= 0:
                continue
            x = x / n
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


def _phases(z: np.ndarray) -> np.ndarray:
    a = np.abs(z)
    return np.where(a > 0, z / np.where(a > 0, a, 1.0), 1.0)


def _top_direction(A: np.ndarray):
    """Largest singular value of A and a right vector c with ||Ac|| = sigma_max."""
    if A.size == 0:
        return 0.0, np.zeros(A.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(A, full_matrices=False)
    return float(s[0]), vh[0].conj()
