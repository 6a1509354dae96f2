"""Projective tensor norm search over a described base against a normed factor.

Both the MAX quantization (factor = a euclidean truncation of H) and the
TENSOR_P quantization (factor = an inner-quantized amplification) need the
same computation: given Z in E (x) W presented as one W-vector per base
coordinate of E, bracket

    inf { sum_k ||x_k||_E ||V_k||_W  :  Z = sum_k x_k (x) V_k }.

The factor is None, for the euclidean norm of the flat vector, or a function
returning (upper, lower, exact) bounds of ||v||_W for one vector v.

On a weighted-l1 base the bracket is the closed form l1 (x)_pi W = l1(W)
(Ryan, Introduction to Tensor Products of Banach Spaces, 2002): the column
sums [sum_j w_j lower_j, sum_j w_j upper_j] of one factor evaluation per
nonzero slice, exact iff every evaluation was.  On other bases upper bounds
come from explicit decompositions (basis slices, the SVD of the coefficient
matrix, and a refinement of the better of those by unitary 2x2 mixes of
term pairs), each checked to reconstruct Z before its value counts.  The
refinement starts from that decomposition's values and draws its mixes in
batches (the whole budget at once up to 4096), so its draws do not depend on
which mixes it accepts; it keeps the values it compared when it accepts one.
Lower bounds come from functionals in the dual ball of E against the factor
and, for the euclidean factor, from trace duality; on a euclidean base both
bounds are the nuclear norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import BaseNorm
from .hilbert import l2_norm

__all__ = ["ProjResult", "proj_bracket"]

RECON_TOL = 1e-10  # residual bound of every decomposition, pl and l representations too
_MOVE_CHUNK = 4096  # refinement moves drawn per batch, so memory stays bounded in the budget


@dataclass
class ProjResult:
    upper: float
    lower: float
    exact: bool
    terms: list  # list of (x, flatV) pairs reconstructing Z
    values: list  # ||x_k||_E ||V_k||_W of each term; they sum to upper
    upper_method: str


def _euclidean(v: np.ndarray) -> tuple:
    n = l2_norm(v)
    return n, n, True


def proj_bracket(base: BaseNorm, factor, Z, budget: int = 200, *, rng) -> ProjResult:
    """Bracket the projective norm of Z (one factor vector per base coordinate).

    factor is None (the euclidean norm) or v -> (upper, lower, exact).  On a
    weighted-l1 base the result is the column-sum closed form, method
    "l1-columns"; elsewhere exact is False, and the refinement and the lower
    bound draw from rng, which the caller builds from a seed and a label.
    """
    Zf = np.asarray(Z, dtype=complex)
    if Zf.ndim != 2 or Zf.shape[0] != base.dim:
        raise ValueError("Z must have one factor-vector per base coordinate")
    evaluate = _euclidean if factor is None else factor

    terms, values, lower, exact = [], [], 0.0, True
    for j in np.flatnonzero(np.any(Zf, axis=1)):
        e = np.zeros(base.dim, dtype=complex)
        e[j] = 1.0
        hi, lo, ex = evaluate(Zf[j])
        w = base.norm(e)
        terms.append((e, Zf[j].copy()))
        values.append(w * hi)
        lower, exact = lower + w * lo, exact and ex
    if base.kind == "lp" and base.p == 1.0:
        return ProjResult(sum(values, 0.0), lower, exact, terms, values, "l1-columns")

    def upper(v):
        return evaluate(v)[0]

    up_val, up_terms, up_vals, up_method = sum(values, 0.0), terms, values, "basis-slices"
    svd = np.linalg.svd(Zf, full_matrices=False)  # shared with the trace-duality lower bound
    svd_terms, svd_vals, svd_val = _svd_decomposition(base, upper, Zf, svd)
    if svd_val < up_val:
        up_val, up_terms, up_vals, up_method = svd_val, svd_terms, svd_vals, "svd"

    if budget > 0 and len(up_terms) > 1:
        ref_terms, ref_vals, ref_val = _refine(base, upper, up_terms, up_vals, Zf, budget, rng)
        if ref_val < up_val - 1e-15:
            up_val, up_terms, up_vals = ref_val, ref_terms, ref_vals
            up_method += "+refine"

    low_val = min(_lower_bound(base, factor, Zf, svd, rng), up_val)  # float jitter
    return ProjResult(up_val, low_val, False, up_terms, up_vals, up_method)


def _reconstructs(terms, Zf) -> bool:
    recon = sum(np.multiply.outer(x, v) for x, v in terms)
    return np.linalg.norm(recon - Zf) <= RECON_TOL * max(1.0, np.linalg.norm(Zf))


def _svd_decomposition(base, upper, Zf, svd):
    u, s, vh = svd
    terms, vals = [], []
    for k in np.flatnonzero(s > s[0] * 1e-15):
        x = u[:, k] * s[k]
        terms.append((x, vh[k].copy()))
        vals.append(base.norm(x) * upper(vh[k]))
    if not _reconstructs(terms, Zf):
        return None, None, np.inf
    return terms, vals, sum(vals, 0.0)


def _moves(rng, n_terms, budget):
    """The refinement's moves (k, l, c, s), drawn _MOVE_CHUNK at a time: a
    pair k != l and the unitary mix [[c, s], [-conj(s), c]] with c = cos(theta)
    and s = sin(theta) e^(i phi).  The draws do not depend on which moves are
    accepted."""
    for m in (min(_MOVE_CHUNK, budget - s) for s in range(0, budget, _MOVE_CHUNK)):
        ks = rng.integers(0, n_terms, m)
        ls = (ks + rng.integers(1, n_terms, m)) % n_terms
        th, ph = rng.uniform(0, np.pi, m), rng.uniform(0, 2 * np.pi, m)
        cs, ss = np.cos(th), np.sin(th) * np.exp(1j * ph)
        yield from zip(ks.tolist(), ls.tolist(), cs.tolist(), ss.tolist())


def _refine(base, upper, terms, vals, Zf, budget, rng):
    X = np.stack([t[0] for t in terms])
    V = np.stack([t[1] for t in terms])
    vals = np.array(vals, dtype=float)
    norm = base._norm
    # V takes the mix and X its inverse transpose, the conjugate mix, so the terms still reconstruct Z
    for k, l, c, s in _moves(rng, len(terms), budget):
        xk, xl = c * X[k] + s.conjugate() * X[l], c * X[l] - s * X[k]
        vk, vl = c * V[k] + s * V[l], c * V[l] - s.conjugate() * V[k]
        new_k, new_l = norm(xk) * upper(vk), norm(xl) * upper(vl)
        if new_k + new_l < vals[k] + vals[l] - 1e-15:
            X[k], X[l], V[k], V[l], vals[k], vals[l] = xk, xl, vk, vl, new_k, new_l
    keep = vals > 1e-15 * max(1.0, float(vals.sum()))
    terms = [(X[r].copy(), V[r].copy()) for r in range(len(terms)) if keep[r]]
    if not _reconstructs(terms, Zf):
        return None, None, np.inf
    return terms, list(vals[keep]), float(vals[keep].sum())


def _lower_bound(base, factor, Zf, svd, rng) -> float:
    """Best certified lower bound from functionals in the dual ball of the
    base.  Euclidean factor: the dual-ball search and the trace-duality
    pairing with the polar factor of Z, read off svd, Z's thin SVD.  Other
    factors: the lower bound of the factor at Z^T f for each polytope vertex
    f, or for the dual-ball witness and the scaled dual coordinate vectors."""
    if factor is None:
        dm = base.dual_ball_maximize(Zf.T, rng=rng)
        u, _, vh = svd
        phi = np.conj(u @ vh)
        pm = base.primal_ball_maximize(phi.T, rng=rng)
        return max(dm.lower, float(abs(np.sum(Zf * phi)) / pm.upper))
    if base.kind == "polytope":
        fs = list(base.vertices)
    else:
        dd = base.dual_descriptor()
        fs = [base.dual_ball_maximize(Zf.T, rng=rng).witness]
        fs += [e / dd.norm(e) for e in np.eye(base.dim, dtype=complex)]
    return max(factor(Zf.T @ f)[1] for f in fs)
