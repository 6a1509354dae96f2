"""Projective tensor norm search over a described base against a normed factor.

Both the MAX quantization (factor = a euclidean truncation of H) and the
TENSOR_P quantization (factor = an inner-quantized amplification) need the
same computation: given Z in E (x) W presented as one W-vector per base
coordinate of E, bracket

    inf { sum_k ||x_k||_E ||V_k||_W  :  Z = sum_k x_k (x) V_k }.

Upper bounds come from explicit decompositions (basis slices, the SVD of the
coefficient matrix, and a unitary/scaling refinement of the best of those);
every decomposition is checked to reconstruct Z before its value counts.
Lower bounds come from the injective-type dual (a functional in the dual
ball of E against the factor norm) and, when the factor is euclidean-like,
from trace-duality certificates; tensor_p over a weighted Frobenius inner
(hilbert, lp(2, ...)) takes this path with the factor columns scaled by the
metric, and on a euclidean base both bounds are the nuclear norm.  Weighted-l1
bases collapse to the exact column-sum closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bases import BaseNorm

__all__ = ["EuclidFactor", "ProjResult", "proj_bracket"]

RECON_TOL = 1e-10  # residual bound of every decomposition, pl and l representations too


@dataclass
class EuclidFactor:
    """Factor whose norm is the plain euclidean norm of the flat vector."""

    size: int
    euclid_like: bool = True
    all_exact: bool = True

    def upper(self, v: np.ndarray) -> float:
        return float(np.linalg.norm(v))

    def lower(self, v: np.ndarray) -> float:
        return float(np.linalg.norm(v))


@dataclass
class ProjResult:
    upper: float
    lower: float
    exact: bool
    terms: list  # list of (x, flatV) pairs reconstructing Z
    values: list  # ||x_k||_E ||V_k||_W of each term; they sum to upper
    upper_method: str
    lower_method: str
    lower_witness: dict = field(default_factory=dict)


def proj_bracket(base: BaseNorm, factor, Z, budget: int = 200, rng=None) -> ProjResult:
    """Bracket the projective norm of Z (shape (m_E, factor.size))."""
    Zf = np.asarray(Z, dtype=complex)
    if Zf.ndim != 2 or Zf.shape[0] != base.dim or Zf.shape[1] != factor.size:
        raise ValueError("Z must have one factor-vector per base coordinate")
    rng = np.random.default_rng(0) if rng is None else rng

    l1_type = base.kind == "lp" and base.p == 1.0

    candidates = []
    slice_terms, slice_vals, slice_val = _slice_decomposition(base, factor, Zf)
    candidates.append((slice_val, slice_terms, slice_vals, "basis-slices"))
    svd_terms, svd_vals, svd_val = _svd_decomposition(base, factor, Zf)
    if svd_terms is not None:
        candidates.append((svd_val, svd_terms, svd_vals, "svd"))
    candidates.sort(key=lambda c: c[0])
    up_val, up_terms, up_vals, up_method = candidates[0]

    if not l1_type and budget > 0 and len(up_terms) > 1:
        ref_terms, ref_vals, ref_val = _refine(base, factor, up_terms, Zf, budget, rng)
        if ref_terms is not None and ref_val < up_val - 1e-15:
            up_val, up_terms, up_vals = ref_val, ref_terms, ref_vals
            up_method += "+refine"

    low_val, low_method, low_witness = _lower_bound(base, factor, Zf, rng)

    exact = False
    if l1_type and factor.all_exact:
        # closed form: both sides are the weighted column sum
        exact = True
        up_val, up_terms, up_vals, up_method = slice_val, slice_terms, slice_vals, "l1-columns"
        low_val, low_method = slice_val, "l1-columns"

    low_val = min(low_val, up_val)  # guard float jitter in collapsed brackets
    return ProjResult(up_val, low_val, exact, up_terms, up_vals, up_method, low_method, low_witness)


def _slice_decomposition(base, factor, Zf):
    terms, vals = [], []
    for j in range(base.dim):
        if not np.any(Zf[j]):
            continue
        e = np.zeros(base.dim, dtype=complex)
        e[j] = 1.0
        terms.append((e, Zf[j].copy()))
        vals.append(base.norm(e) * factor.upper(Zf[j]))
    return terms, vals, sum(vals, 0.0)


def _svd_decomposition(base, factor, Zf):
    if not np.any(Zf):
        return [], [], 0.0
    u, s, vh = np.linalg.svd(Zf, full_matrices=False)
    keep = s > s[0] * 1e-15
    terms, vals = [], []
    for k in np.nonzero(keep)[0]:
        x = u[:, k] * s[k]
        v = vh[k]
        terms.append((x, v.copy()))
        vals.append(base.norm(x) * factor.upper(v))
    # exactness of the truncated reconstruction
    recon = sum(np.multiply.outer(x, v) for x, v in terms)
    if np.linalg.norm(recon - Zf) > RECON_TOL * max(1.0, np.linalg.norm(Zf)):
        return None, None, np.inf
    return terms, vals, sum(vals, 0.0)


def _term_value(base, factor, x, v):
    return base.norm(x) * factor.upper(v)


def _refine(base, factor, terms, Zf, budget, rng):
    X = np.stack([t[0] for t in terms], axis=1)
    V = np.stack([t[1] for t in terms], axis=0)
    vals = np.array([_term_value(base, factor, X[:, r], V[r]) for r in range(len(terms))])
    total = float(vals.sum())
    n_terms = len(terms)
    for _ in range(budget):
        k, l = rng.choice(n_terms, size=2, replace=False)
        if rng.random() < 0.5:
            # unitary 2x2 mix: exact inverse, reconstruction preserved
            th = rng.uniform(0, np.pi)
            ph = np.exp(1j * rng.uniform(0, 2 * np.pi))
            c, s = np.cos(th), np.sin(th)
            g = np.array([[c, s * ph], [-s * np.conj(ph), c]])
        else:
            t = np.exp(rng.uniform(-1.0, 1.0))
            g = np.array([[t, 0.0], [0.0, 1.0 / t]], dtype=complex)
        gi = np.linalg.inv(g)
        xk = X[:, k] * gi[0, 0] + X[:, l] * gi[1, 0]
        xl = X[:, k] * gi[0, 1] + X[:, l] * gi[1, 1]
        vk = g[0, 0] * V[k] + g[0, 1] * V[l]
        vl = g[1, 0] * V[k] + g[1, 1] * V[l]
        new_pair = (
            _term_value(base, factor, xk, vk) + _term_value(base, factor, xl, vl)
        )
        if new_pair < vals[k] + vals[l] - 1e-15:
            X[:, k], X[:, l] = xk, xl
            V[k], V[l] = vk, vl
            vals[k] = _term_value(base, factor, X[:, k], V[k])
            vals[l] = _term_value(base, factor, X[:, l], V[l])
            total = float(vals.sum())
    keep = vals > 1e-15 * max(1.0, total)
    terms = [(X[:, r].copy(), V[r].copy()) for r in range(n_terms) if keep[r]]
    recon = sum(np.multiply.outer(x, v) for x, v in terms)
    if np.linalg.norm(recon - Zf) > RECON_TOL * max(1.0, np.linalg.norm(Zf)):
        return None, None, np.inf
    return terms, list(vals[keep]), float(vals[keep].sum())


def _lower_bound(base, factor, Zf, rng):
    cands = []
    if base.kind == "lp" and base.p == 1.0:
        val = sum(
            base.weights[j] * factor.lower(Zf[j]) for j in range(base.dim) if np.any(Zf[j])
        )
        cands.append((float(val), "l1-columns", {}))
    if factor.euclid_like:
        dm = base.dual_ball_maximize(Zf.T, rng=rng)
        cands.append((dm.lower, "injective", {"functional": dm.witness}))
        u, s, vh = np.linalg.svd(Zf, full_matrices=False)
        phi = np.conj(u @ vh)
        pm = base.primal_ball_maximize(phi.T, rng=rng)
        if pm.upper > 0:
            val = float(abs(np.sum(Zf * phi)) / pm.upper)
            cands.append((val, "trace-dual", {"pairing_matrix_scale": pm.upper}))
    else:
        fs = []
        if base.kind == "polytope":
            fs.extend(list(base.vertices))
        else:
            dm = base.dual_ball_maximize(Zf.T, rng=rng)
            fs.append(dm.witness)
            dd = base.dual_descriptor()
            if dd is not None:
                for j in range(base.dim):
                    e = np.zeros(base.dim, dtype=complex)
                    e[j] = 1.0
                    r = dd.norm(e)
                    if r > 0:
                        fs.append(e / r)
        for f in fs:
            if f is None or not np.any(f):
                continue
            val = factor.lower(Zf.T @ f)
            cands.append((float(val), "injective", {"functional": f}))
    if not cands:
        return 0.0, "none", {}
    cands.sort(key=lambda c: -c[0])
    return cands[0]
