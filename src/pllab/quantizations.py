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

Below ``amp_norm`` one valuation step, ``_valued``, values a checked element
of known Frobenius norm at unit scale and scales the bounds back, as a plain
(upper, lower, exact, method) tuple.  ``amp_norm`` checks its element once;
the points of an ``lp`` and the factor evaluations of a ``tensor_p`` over an
inner without a Frobenius metric go through ``_valued`` with no re-check.

``hilbert``, and ``lp(2, ...)`` over a scalar or such an inner, are weighted
Frobenius norms ||U diag(g)||_F (``frobenius_metric``); a ``tensor_p`` over
them is bracketed as a column-scaled euclidean projective norm, with no inner
norm evaluations.  ``max(E)`` is ``tensor_p(E, scalar)`` and is bracketed as
one.  Facts read off a descriptor without evaluating a norm are Quantization
properties.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bases import BaseNorm, admit_real, check_p
from .hilbert import coeffs_of, frobenius_norm, l2_norm, unit_scaled
from .projective import ProjResult, proj_bracket
from .sampling import make_rng, random_complex
from .wire import matrix_from_json, matrix_to_json, p_from_json, p_to_json

__all__ = [
    "NormValue",
    "Quantization",
    "amp_norm",
    "underlying_norm",
    "semi_ruan_witness_search",
    "tensor_p_bracket",
]

_KINDS = ("min", "max", "lp", "hilbert", "concrete", "tensor_p")
MAX_DEPTH = 32  # descriptors in one chain of inners; every evaluation recurses a few frames per level


def _check_depth(part) -> None:
    """Raise ValueError when a descriptor, or its dict form, chains more than
    MAX_DEPTH descriptors through inner; counted in a loop, which no depth
    can exhaust."""
    depth = 0
    while isinstance(part, (dict, Quantization)):
        part, depth = part.get("inner") if isinstance(part, dict) else part.inner, depth + 1
    if depth > MAX_DEPTH:
        raise ValueError(f"descriptor chains {depth} descriptors through inner, at most {MAX_DEPTH}")


@dataclass(frozen=True)
class NormValue:
    """Certified evaluation of an amplified norm.

    value is the reported norm and is always a valid upper bound; lower is a
    certified lower bound (equal to value when exact).  Raises ValueError
    when either is not finite: no certified bound is NaN or infinite.
    """

    value: float
    lower: float
    exact: bool
    method: str

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.lower)):
            raise ValueError(f"{self.method}: non-finite norm bounds value={self.value!r}, lower={self.lower!r}")
        v = max(float(self.value), 0.0)
        lo = min(max(float(self.lower), 0.0), v)
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "lower", lo)


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
            w = np.asarray(self.weights, dtype=float)
            if w.ndim != 1 or w.size < 1 or not np.all((w > 0) & (w < np.inf)):
                raise ValueError("lp quantization needs positive finite point weights")
            check_p(self.p, "lp quantization", w)
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
        if self.real and self.kind not in ("min", "lp"):
            # the projective searches of max and tensor_p run on complex data
            raise ValueError(f"{self.kind} quantization does not take a real-restricted base or inner")
        _check_depth(self)

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

    @property
    def real(self) -> bool:  # a real-restricted min base here or in an lp inner
        return (self.base is not None and self.base.real) or (self.inner is not None and self.inner.real)

    # -- descriptor facts -------------------------------------------------

    @property
    def underlying_base(self) -> Optional[BaseNorm]:
        """Base norm of the underlying space, when it is one: the base of min,
        max and hilbert, point_base for an lp over the scalar inner, else None."""
        if self.kind in ("min", "max", "hilbert"):
            return self.base
        if self.kind == "lp" and self.inner.kind == "hilbert" and self.inner.dim == 1:
            return self.point_base
        return None

    @functools.cached_property
    def point_base(self) -> BaseNorm:
        """lp only: the norm with which _amp_lp combines the point norms n_t,
        (sum_t w_t n_t^p)^(1/p), and max_t n_t (no weights) at p = inf; built once."""
        return BaseNorm.lp(self.p, weights=np.ones(self.points) if np.isinf(self.p) else self.weights)

    @property
    def frobenius_metric(self) -> Optional[np.ndarray]:
        """Column weights g with amp_norm(q, U) == ||U diag(g)||_F, or None: ones
        for hilbert, sqrt(w_t) g' on point t for lp(2, w) over an inner with
        metric g' (the scalar inner counts), None for every other kind."""
        if self.kind == "hilbert":
            return np.ones(self.dim)
        if self.kind == "lp" and self.p == 2.0:
            g = self.inner.frobenius_metric
            return None if g is None else np.kron(np.sqrt(self.weights), g)
        return None

    @property
    def projective_base(self) -> Optional[BaseNorm]:
        """Underlying base when the underlying norm is of projective type: max,
        and lp(1, ...) over the scalar inner; else None."""
        return self.underlying_base if self.kind == "max" or (self.kind == "lp" and self.p == 1.0) else None

    @property
    def semi_ruan(self) -> bool:
        """True only when the descriptor proves ||u + v||^2 <= ||u||^2 + ||v||^2
        for u, v on orthogonal H-blocks: min and hilbert, concrete (the column
        stack ||[A; B]||^2 <= ||A||^2 + ||B||^2), and lp with p >= 2 or one
        point, over a scalar or proved inner (the triangle inequality of
        l_(p/2) on the squared point norms).  False for every other
        descriptor, semi-Ruan or not."""
        if self.kind in ("min", "hilbert", "concrete"):
            return True
        return self.kind == "lp" and (self.p >= 2 or self.points == 1) and (self.inner.dim == 1 or self.inner.semi_ruan)

    def check_element(self, u) -> np.ndarray:
        U = coeffs_of(u)
        if U.shape[1] != self.dim:
            raise ValueError(
                f"element has {U.shape[1]} base coordinates, quantization has {self.dim}"
            )
        if self.real:
            U = admit_real(U)
            q = self
            while q.kind == "lp":  # a real lp ends in a min over a real base
                q = q.inner
            q.base.check_rows(U.shape[0])
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
        _check_depth(d)  # before the recursion into inner
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

_SCALAR = Quantization.scalar()  # the inner of max(E) = tensor_p(E, scalar)


def amp_norm(q: Quantization, u, budget: int = 200, seed: int = 0, rng=None) -> NormValue:
    """Evaluate the quantized norm of an amplified element.

    The returned NormValue.value is always a certified upper bound; for the
    exact kinds it is the norm itself.  Raises ValueError when the element
    has non-finite entries.
    """
    U = q.check_element(u)
    scale = frobenius_norm(U)
    rng = make_rng(seed, "amp", q.kind) if rng is None else rng
    return NormValue(*_valued(q, U, scale, budget, rng))


def _valued(q: Quantization, U: np.ndarray, scale: float, budget: int, rng) -> tuple:
    """(upper, lower, exact, method) of a checked element U of Frobenius norm
    scale: U is valued at unit scale and the bounds are scaled back."""
    if scale == 0.0:
        return 0.0, 0.0, True, f"{q.kind}/zero"
    upper, lower, exact, method = _amp_dispatch(q, unit_scaled(U, scale), budget, rng)
    return upper * scale, lower * scale, exact, method


def _amp_dispatch(q: Quantization, U: np.ndarray, budget: int, rng) -> tuple:
    if q.kind == "min":
        dm = q.base.dual_ball_maximize(U, rng=rng, starts=max(4, budget // 25))
        return dm.upper, dm.lower, dm.exact, "min/dual-ball"
    if q.kind == "hilbert":
        v = l2_norm(U)
        return v, v, True, "hilbert/frobenius"
    if q.kind == "concrete":
        gens = np.stack(q.generators)  # (m, L, K)
        gamma = np.einsum("ij,jlk->ilk", U, gens).reshape(U.shape[0] * gens.shape[1], gens.shape[2])
        v = float(np.linalg.norm(gamma, 2)) if gamma.size else 0.0
        return v, v, True, "concrete/block-operator"
    if q.kind == "lp":
        return _amp_lp(q, U, budget, rng)
    # max(E) is tensor_p(E, scalar): the same proj_bracket call on U.T
    inner = _SCALAR if q.kind == "max" else q.inner
    res = tensor_p_bracket(q.base, inner, U, budget, rng)
    return res.upper, res.lower, res.exact, f"{q.kind}/{res.upper_method}"


def tensor_p_bracket(base: BaseNorm, inner: Quantization, U: np.ndarray, budget: int, rng) -> ProjResult:
    """The projective bracket of U over base (x) inner.

    U has one row per H coordinate and base.dim * inner.dim columns.  An
    inner with a frobenius_metric g is bracketed as the euclidean factor with
    columns scaled by g, terms scaled back; any other inner by one _valued
    step per factor evaluation, whose (upper, lower, exact) is the factor
    bracket.  On a weighted-l1 base the result is exact iff every inner
    evaluation was.
    """
    Z = _beta_slices(U, base.dim, inner.dim)
    g = inner.frobenius_metric
    if g is None:
        inner_budget = max(budget // 4, 20)

        def factor(v):
            V = v.reshape(-1, inner.dim)
            return _valued(inner, V, frobenius_norm(V), inner_budget, rng)[:3]

        return proj_bracket(base, factor, Z, budget=budget, rng=rng)
    G = np.tile(g, U.shape[0])
    res = proj_bracket(base, None, Z * G, budget=budget, rng=rng)
    for _, v in res.terms:  # each v is proj_bracket's own copy
        v /= G
    return res


def _amp_lp(q: Quantization, U: np.ndarray, budget: int, rng) -> tuple:
    """Point norms of U's column blocks, combined as q.point_base says.

    U is checked and unit-scaled, so each block goes to _valued with no
    re-check and no overflow.  Each block is divided by its own norm before
    it is valued, so a block whose squares underflow still gets its norm to
    rounding.  An exact point's lower is its upper, so the lowers are
    combined only when some point was inexact."""
    mi = q.inner.dim
    uppers, lowers, exact = np.zeros(q.points), np.zeros(q.points), True
    for t in range(q.points):
        block = U[:, t * mi : (t + 1) * mi]
        scale = l2_norm(block) or frobenius_norm(block)
        uppers[t], lowers[t], ex, _ = _valued(q.inner, block, scale, max(budget // 4, 20), rng)
        exact = exact and ex
    v = q.point_base._norm(uppers)
    return v, v if exact else q.point_base._norm(lowers), exact, "lp/pointwise"


def _beta_slices(U: np.ndarray, m_base: int, m_inner: int) -> np.ndarray:
    """Regroup H (x) (E (x) F) coefficients into one flat HF vector per E index."""
    d = U.shape[0]
    return U.reshape(d, m_base, m_inner).transpose(1, 0, 2).reshape(m_base, d * m_inner)


def underlying_norm(q: Quantization, x) -> float:
    """Norm of a base-space element: the amplified norm of a 1-row coefficient matrix."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1:
        raise ValueError("underlying_norm expects a coordinate vector")
    return amp_norm(q, x[None, :]).value


# -- semi-Ruan search --------------------------------------------------------


def semi_ruan_witness_search(q: Quantization, trials: int = 400, seed: int = 0, tolerance: float = 1e-9):
    """Search for a violation of the semi-Ruan inequality.

    Samples pairs with orthogonal coordinate-block supports on the H slot and
    tests ||u + v||^2 <= ||u||^2 + ||v||^2.  Returns a witness dict for the
    first certified violation (lower bound of the left side beats the upper
    bounds on the right) or None when all trials pass.  Each norm is valued
    at budget 60.
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
        nu = amp_norm(q, U, budget=60, rng=rng)
        nv = amp_norm(q, V, budget=60, rng=rng)
        ns = amp_norm(q, U + V, budget=60, rng=rng)
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
    eye = np.eye(m, dtype=complex)
    structured = [(j, k) for j in range(m) for k in range(m)][:max(trials, 0)]
    for j, k in structured:
        w = check(eye[j:j + 1], eye[k:k + 1])
        if w is not None:
            return w
    for _ in range(trials - len(structured)):
        d1 = int(rng.integers(1, 3))
        d2 = int(rng.integers(1, 3))
        w = check(
            random_complex(rng, d1, m, real=q.real),
            random_complex(rng, d2, m, real=q.real),
        )
        if w is not None:
            return w
    return None
