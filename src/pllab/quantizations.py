"""Quantizations: norms on the amplification H (x) E and their evaluation.

A Quantization fixes how the coefficient matrix of an amplified element is
normed.  Six kinds are supported:

* ``min``      injective norm against the dual ball of the base descriptor;
* ``max``      projective norm of the truncation against the base;
* ``lp``       weighted L_p over a finite point set with inner-quantized
               point values;
* ``hilbert``  Frobenius norm of the coefficients (euclidean base);
* ``concrete`` operator norm of the associated block operator, for a base
               realized by generator operators between two Hilbert spaces;
* ``tensor_p`` projective norm of a described base against an
               inner-quantized amplification.

``amp_norm`` returns a NormValue: when ``exact`` is False the ``value`` field
is a certified upper bound and ``lower`` records the best certified lower
bound found within the budget.  Inputs are normalized to unit Frobenius
scale before evaluation, so every reported quantity is exactly homogeneous.

``hilbert`` and ``lp(2, ...)`` over such an inner are weighted Frobenius norms
||U diag(g)||_F (``frobenius_metric``); a ``tensor_p`` over them is bracketed
as a column-scaled euclidean projective norm, with no inner norm evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .bases import BaseNorm, DualMax
from .hilbert import coeffs_of, frobenius_norm
from .projective import EuclidFactor, proj_bracket
from .sampling import make_rng, random_complex
from .wire import matrix_from_json, matrix_to_json, p_from_json, p_to_json

__all__ = [
    "NormValue",
    "Quantization",
    "amp_norm",
    "frobenius_metric",
    "underlying_norm",
    "semi_ruan_witness_search",
    "AmpFactor",
    "tensor_p_bracket",
]

_KINDS = ("min", "max", "lp", "hilbert", "concrete", "tensor_p")


@dataclass(frozen=True)
class NormValue:
    """Certified evaluation of an amplified norm.

    value is the reported norm and is always a valid upper bound; lower is a
    certified lower bound (equal to value when exact).
    """

    value: float
    lower: float
    exact: bool
    method: str

    def __post_init__(self):
        v = max(float(self.value), 0.0)
        lo = min(max(float(self.lower), 0.0), v)
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "lower", lo)

    def __float__(self) -> float:
        return self.value

    @property
    def gap(self) -> float:
        return self.value - self.lower

    def scaled(self, s: float) -> "NormValue":
        return NormValue(self.value * s, self.lower * s, self.exact, self.method)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "lower": self.lower,
            "exact": self.exact,
            "method": self.method,
        }


@dataclass(frozen=True)
class Quantization:
    """Descriptor of a norm on amplifications over a fixed base space."""

    kind: str
    base: Optional[BaseNorm] = None
    inner: Optional["Quantization"] = None
    p: Optional[float] = None
    weights: Optional[np.ndarray] = None
    generators: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown quantization kind {self.kind!r}")
        if self.kind in ("min", "max"):
            if self.base is None:
                raise ValueError(f"{self.kind} quantization needs a base descriptor")
        elif self.kind == "hilbert":
            if self.base is None or self.base.kind != "euclidean":
                raise ValueError("hilbert quantization needs a euclidean base")
        elif self.kind == "lp":
            if self.p is None or not (1.0 <= self.p):
                raise ValueError("lp quantization needs p in [1, inf]")
            w = np.asarray(self.weights, dtype=float)
            if w.ndim != 1 or w.size < 1 or not np.all((w > 0) & (w < np.inf)):
                raise ValueError("lp quantization needs positive finite point weights")
            object.__setattr__(self, "weights", w)
            if self.inner is None:
                object.__setattr__(self, "inner", Quantization.scalar())
        elif self.kind == "concrete":
            gens = tuple(np.asarray(g, dtype=complex) for g in self.generators)
            if not gens or any(g.ndim != 2 or g.shape != gens[0].shape or not np.isfinite(g).all() for g in gens):
                raise ValueError("concrete quantization needs finite generator matrices of equal shape")
            object.__setattr__(self, "generators", gens)
        elif self.kind == "tensor_p":
            if self.base is None or self.inner is None:
                raise ValueError("tensor_p quantization needs a base descriptor and an inner quantization")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def min(base: BaseNorm) -> "Quantization":
        return Quantization(kind="min", base=base)

    @staticmethod
    def max(base: BaseNorm) -> "Quantization":
        return Quantization(kind="max", base=base)

    @staticmethod
    def hilbert(dim: int) -> "Quantization":
        return Quantization(kind="hilbert", base=BaseNorm.euclidean(dim))

    @staticmethod
    def scalar() -> "Quantization":
        return Quantization.hilbert(1)

    @staticmethod
    def lp(p: float, weights, inner: "Quantization" = None) -> "Quantization":
        return Quantization(kind="lp", p=float(p), weights=np.asarray(weights, dtype=float), inner=inner)

    @staticmethod
    def concrete(generators) -> "Quantization":
        return Quantization(kind="concrete", generators=tuple(generators))

    @staticmethod
    def tensor_p(base: BaseNorm, inner: "Quantization") -> "Quantization":
        return Quantization(kind="tensor_p", base=base, inner=inner)

    # -- shape ------------------------------------------------------------

    @property
    def points(self) -> int:
        return int(self.weights.size) if self.kind == "lp" else 0

    @property
    def dim(self) -> int:
        if self.kind in ("min", "max", "hilbert"):
            return self.base.dim
        if self.kind == "lp":
            return self.points * self.inner.dim
        if self.kind == "concrete":
            return len(self.generators)
        return self.base.dim * self.inner.dim

    def is_min_euclidean(self) -> bool:
        return self.kind == "min" and self.base.kind == "euclidean"

    @property
    def real(self) -> bool:  # a real-restricted base here or in an inner
        return (self.base is not None and self.base.real) or (self.inner is not None and self.inner.real)

    def check_element(self, u) -> np.ndarray:
        U = coeffs_of(u)
        if U.shape[1] != self.dim:
            raise ValueError(
                f"element has {U.shape[1]} base coordinates, quantization has {self.dim}"
            )
        if self.real and np.abs(U.imag).max(initial=0.0) > 1e-12:
            raise ValueError("element must be real-valued in real-restricted mode")
        return U

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        params: dict = {}
        out = {"kind": self.kind, "dim": self.dim, "params": params}
        if self.kind in ("min", "max", "tensor_p"):
            params["base"] = self.base.to_dict()
        if self.kind == "lp":
            params["p"] = p_to_json(self.p)
            params["weights"] = [float(w) for w in self.weights]
        if self.kind == "concrete":
            params["generators"] = [matrix_to_json(g) for g in self.generators]
        if self.kind in ("lp", "tensor_p"):
            out["inner"] = self.inner.to_dict()
        return out

    @staticmethod
    def from_dict(d: dict) -> "Quantization":
        kind = str(d["kind"]).lower()
        params = d.get("params", {}) or {}
        inner = Quantization.from_dict(d["inner"]) if d.get("inner") else None
        if kind == "min":
            q = Quantization.min(BaseNorm.from_dict(params["base"]))
        elif kind == "max":
            q = Quantization.max(BaseNorm.from_dict(params["base"]))
        elif kind == "hilbert":
            q = Quantization.hilbert(int(d["dim"]))
        elif kind == "lp":
            q = Quantization.lp(p_from_json(params["p"]), params["weights"], inner=inner)
        elif kind == "concrete":
            q = Quantization.concrete([matrix_from_json(g) for g in params["generators"]])
        elif kind == "tensor_p":
            q = Quantization.tensor_p(BaseNorm.from_dict(params["base"]), inner)
        else:
            raise ValueError(f"unknown quantization kind {kind!r}")
        if "dim" in d and int(d["dim"]) != q.dim:
            raise ValueError(f"declared dim {d['dim']} does not match descriptor dim {q.dim}")
        return q


# -- amplified norm ---------------------------------------------------------


def amp_norm(q: Quantization, u, budget: int = 200, seed: int = 0, rng=None) -> NormValue:
    """Evaluate the quantized norm of an amplified element.

    The returned NormValue.value is always a certified upper bound; for the
    exact kinds it is the norm itself.  Raises ValueError when the element
    has non-finite entries.
    """
    U = q.check_element(u)
    scale = frobenius_norm(U)
    if scale == 0.0:
        return NormValue(0.0, 0.0, True, f"{q.kind}/zero")
    rng = make_rng(seed, "amp", q.kind) if rng is None else rng
    nv = _amp_dispatch(q, U / scale, budget, rng)
    return nv.scaled(scale)


def _amp_dispatch(q: Quantization, U: np.ndarray, budget: int, rng) -> NormValue:
    if q.kind == "min":
        dm = q.base.dual_ball_maximize(U, rng=rng, starts=max(4, budget // 25))
        return NormValue(dm.upper, dm.lower, dm.exact, "min/dual-ball")
    if q.kind == "hilbert":
        v = float(np.linalg.norm(U))
        return NormValue(v, v, True, "hilbert/frobenius")
    if q.kind == "concrete":
        gens = np.stack(q.generators)  # (m, L, K)
        gamma = np.einsum("ij,jlk->ilk", U, gens).reshape(U.shape[0] * gens.shape[1], gens.shape[2])
        v = float(np.linalg.norm(gamma, 2)) if gamma.size else 0.0
        return NormValue(v, v, True, "concrete/block-operator")
    if q.kind == "lp":
        return _amp_lp(q, U, budget, rng)
    if q.kind == "max":
        res = proj_bracket(q.base, EuclidFactor(U.shape[0]), U.T, budget=budget, rng=rng)
        return NormValue(res.upper, res.lower, res.exact, f"max/{res.upper_method}")
    res, all_exact = tensor_p_bracket(q.base, q.inner, U, budget, rng)
    return NormValue(res.upper, res.lower, res.exact and all_exact, f"tensor_p/{res.upper_method}")


def tensor_p_bracket(base: BaseNorm, inner: Quantization, U: np.ndarray, budget: int, rng) -> tuple:
    """(ProjResult, all_exact): the projective bracket of U over base (x)
    inner, and whether every inner norm evaluated on the way was exact.

    U has one row per H coordinate and base.dim * inner.dim columns.  An
    inner with a frobenius_metric g is bracketed as the euclidean factor with
    columns scaled by g, terms scaled back; any other inner by an AmpFactor.
    """
    d = U.shape[0]
    Z = _beta_slices(U, base.dim, inner.dim)
    g = frobenius_metric(inner)
    if g is None:
        factor = AmpFactor(inner, budget=max(budget // 4, 20), rng=rng, d=d)
        return proj_bracket(base, factor, Z, budget=budget, rng=rng), factor.all_exact
    G = np.tile(g, d)
    res = proj_bracket(base, EuclidFactor(Z.shape[1]), Z * G, budget=budget, rng=rng)
    return replace(res, terms=[(x, v / G) for x, v in res.terms]), True


def frobenius_metric(q: Quantization) -> Optional[np.ndarray]:
    """Column weights g with amp_norm(q, U) == ||U diag(g)||_F, or None: ones
    for hilbert, sqrt(w_t) g' on point t for lp(2, w) over an inner with
    metric g' (the scalar inner counts), None for every other kind."""
    if q.kind == "hilbert":
        return np.ones(q.dim)
    if q.kind == "lp" and q.p == 2.0:
        g = frobenius_metric(q.inner)
        return None if g is None else np.kron(np.sqrt(q.weights), g)
    return None


def point_base(q: Quantization) -> BaseNorm:
    """Norm that combines the point norms n_t of an lp quantization as
    _amp_lp does: (sum_t w_t n_t^p)^(1/p), and max_t n_t (no weights) at
    p = inf."""
    return BaseNorm.lp(q.p, weights=np.ones(q.points) if np.isinf(q.p) else q.weights)


def _amp_lp(q: Quantization, U: np.ndarray, budget: int, rng) -> NormValue:
    mi = q.inner.dim
    uppers = np.zeros(q.points)
    lowers = np.zeros(q.points)
    exact = True
    for t in range(q.points):
        # U is checked and unit-scaled: no amp_norm re-check or overflow guard
        block = U[:, t * mi : (t + 1) * mi]
        scale = float(np.linalg.norm(block)) or frobenius_norm(block)  # the latter on underflow
        if scale == 0.0:
            continue
        nv = _amp_dispatch(q.inner, block / scale, max(budget // 4, 20), rng).scaled(scale)
        uppers[t], lowers[t], exact = nv.value, nv.lower, exact and nv.exact
    w = q.weights
    if np.isinf(q.p):
        hi, lo = float(np.max(uppers)), float(np.max(lowers))
    else:
        hi = float(np.sum(w * uppers**q.p) ** (1.0 / q.p))
        lo = float(np.sum(w * lowers**q.p) ** (1.0 / q.p))
    return NormValue(hi, lo, exact, "lp/pointwise")


def _beta_slices(U: np.ndarray, m_base: int, m_inner: int) -> np.ndarray:
    """Regroup H (x) (E (x) F) coefficients into one flat HF vector per E index."""
    d = U.shape[0]
    return U.reshape(d, m_base, m_inner).transpose(1, 0, 2).reshape(m_base, d * m_inner)


class AmpFactor:
    """Projective-search factor for an inner without a frobenius_metric: one amp_norm per evaluation."""

    euclid_like = False

    def __init__(self, inner: Quantization, budget: int, rng, d: int):
        self.inner = inner
        self.budget = budget
        self.rng = rng
        self.all_exact = True
        self.size = d * inner.dim

    def _eval(self, v: np.ndarray) -> NormValue:
        nv = amp_norm(self.inner, v.reshape(-1, self.inner.dim), budget=self.budget, rng=self.rng)
        if not nv.exact:
            self.all_exact = False
        return nv

    def upper(self, v: np.ndarray) -> float:
        return self._eval(v).value

    def lower(self, v: np.ndarray) -> float:
        return self._eval(v).lower


def underlying_norm(q: Quantization, x) -> float:
    """Norm of a base-space element: the amplified norm of a 1-row coefficient matrix."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1:
        raise ValueError("underlying_norm expects a coordinate vector")
    return amp_norm(q, x[None, :]).value


# -- semi-Ruan search --------------------------------------------------------


def semi_ruan_witness_search(
    q: Quantization,
    trials: int = 400,
    seed: int = 0,
    tolerance: float = 1e-9,
    budget: int = 60,
):
    """Search for a violation of the semi-Ruan inequality.

    Samples pairs with orthogonal coordinate-block supports on the H slot and
    tests ||u + v||^2 <= ||u||^2 + ||v||^2.  Returns a witness dict for the
    first certified violation (lower bound of the left side beats the upper
    bounds on the right) or None when all trials pass.
    """
    rng = make_rng(seed, "semi-ruan", q.kind)
    m = q.dim

    def check(Ublock, Vblock):
        d1 = Ublock.shape[0]
        d = d1 + Vblock.shape[0]
        U = np.zeros((d, m), dtype=complex)
        V = np.zeros((d, m), dtype=complex)
        U[:d1] = Ublock
        V[d1:] = Vblock
        nu = amp_norm(q, U, budget=budget, rng=rng)
        nv = amp_norm(q, V, budget=budget, rng=rng)
        ns = amp_norm(q, U + V, budget=budget, rng=rng)
        if ns.lower**2 > nu.value**2 + nv.value**2 + tolerance:
            return {
                "u": U,
                "v": V,
                "norm_u": nu.value,
                "norm_v": nv.value,
                "norm_sum_lower": ns.lower,
                "excess": ns.lower**2 - nu.value**2 - nv.value**2,
            }
        return None

    # structured trials: coordinate base vectors on disjoint H rows
    structured = 0
    for j in range(m):
        for k in range(m):
            if structured >= min(trials, m * m):
                break
            eu = np.zeros((1, m), dtype=complex)
            ev = np.zeros((1, m), dtype=complex)
            eu[0, j] = 1.0
            ev[0, k] = 1.0
            w = check(eu, ev)
            structured += 1
            if w is not None:
                return w
    for _ in range(max(trials - structured, 0)):
        d1 = int(rng.integers(1, 3))
        d2 = int(rng.integers(1, 3))
        w = check(
            random_complex(rng, d1, m, real=q.real),
            random_complex(rng, d2, m, real=q.real),
        )
        if w is not None:
            return w
    return None
