"""Certified brackets for the pl and l tensor norms on H (x) (E (x) F).

Both norms are infima over structured representations of the element:

* pl: U = sum_k a_k (u_k <> v_k), value sum_k ||a_k|| ||u_k|| ||v_k||;
* l:  U = a (sum_k u_k <> v_k) with the u_k supported on pairwise
  orthogonal H-blocks, value ||a|| (sum_k ||u_k||^2 ||v_k||^2)^(1/2).

Upper bounds come from explicitly constructed representations (several
deterministic families); lower bounds come from the certificate catalog in
:mod:`pllab.maps`.  Both norms are homogeneous, so the driver brackets the
unit-Frobenius element U/||U|| and scales the result back.  The unit bracket
satisfies lower <= upper + 1e-9 as a hard assertion: a violation is a bug in
the machinery, never data.

The l norm never exceeds the pl norm.  One driver serves both: it builds the
pl representation families once, values their orthogonalizations, plain or
balanced, from the families' own term values as l upper bounds (no amplified
norm is evaluated again; see _l_candidate) and evaluates each certificate
once; an l lower bound counts only when its target is proved semi-Ruan from
its descriptor (_semi_ruan), with no search.  compare_pl_l thus reports the
standalone brackets of both norms, with l.upper <= pl.upper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bases import BaseNorm
from .hilbert import PairingMap, coeffs_of, diamond_amp, frobenius_norm, op_norm
from .maps import builtin_certificates
from .projective import RECON_TOL
from .quantizations import Quantization, amp_norm, point_base, tensor_p_bracket
from .sampling import make_rng
from .wire import canonical, matrix_to_json

__all__ = [
    "PLRepresentation",
    "LRepresentation",
    "NormBracket",
    "pl_norm_bracket",
    "l_norm_bracket",
    "orthogonalize_representation",
    "compare_pl_l",
]

def _as_term(term) -> tuple:
    block, left, right = term
    block = np.asarray(block, dtype=complex)
    left = coeffs_of(left)
    right = coeffs_of(right)
    if block.ndim != 2:
        raise ValueError("term block must be a 2-d matrix")
    if block.shape[1] != left.shape[0] * right.shape[0]:
        raise ValueError(
            f"block acts on a {block.shape[1]}-truncation but the diamond lives in "
            f"{left.shape[0] * right.shape[0]} dimensions"
        )
    return block, left, right


@dataclass(frozen=True)
class PLRepresentation:
    """Sum-of-terms representation U = sum_k a_k (u_k <> v_k).

    Each term is a triple (block, left, right): the block maps the diamond's
    H-truncation into the target's, left/right are coefficient matrices over
    the factor bases.  Reconstruction is validated on construction.
    """

    terms: tuple
    target: np.ndarray
    left_space: Quantization
    right_space: Quantization
    pairing: PairingMap = PairingMap()
    label: str = ""

    def __post_init__(self):
        target = coeffs_of(self.target)
        terms = tuple(_as_term(t) for t in self.terms)
        mE, mF = self.left_space.dim, self.right_space.dim
        if target.shape[1] != mE * mF:
            raise ValueError(
                f"target has base dimension {target.shape[1]}, factors give {mE}*{mF}"
            )
        d = target.shape[0]
        for block, left, right in terms:
            if block.shape[0] != d:
                raise ValueError("term block does not land in the target truncation")
            if left.shape[1] != mE or right.shape[1] != mF:
                raise ValueError("term factors do not match the factor spaces")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "target", target)
        res = self.residual()
        if res > RECON_TOL:
            raise ValueError(f"representation does not reconstruct its target (residual {res:.2e})")

    def reconstruct(self) -> np.ndarray:
        out = np.zeros_like(self.target)
        for block, left, right in self.terms:
            out += block @ diamond_amp(left, right, self.pairing)
        return out

    def residual(self) -> float:
        scale = frobenius_norm(self.target) or 1.0
        return frobenius_norm(self.reconstruct() - self.target) / scale

    def term_values(self, budget: int = 60, seed: int = 0) -> list:
        out = []
        for k, (block, left, right) in enumerate(self.terms):
            rng = make_rng(seed, "plrep", k)
            nu = amp_norm(self.left_space, left, budget=budget, rng=rng)
            nv = amp_norm(self.right_space, right, budget=budget, rng=rng)
            out.append((op_norm(block), nu.value, nv.value))
        return out

    def value(self, budget: int = 60, seed: int = 0) -> float:
        """Certified upper bound for the pl norm of the target."""
        return float(sum(a * b * c for a, b, c in self.term_values(budget, seed)))

    def to_dict(self, include_data: bool = True) -> dict:
        out = {
            "kind": "pl",
            "label": self.label,
            "n_terms": len(self.terms),
            "pairing": self.pairing.scheme,
        }
        if include_data:
            out["terms"] = [
                {
                    "block": matrix_to_json(block),
                    "left": matrix_to_json(left),
                    "right": matrix_to_json(right),
                }
                for block, left, right in self.terms
            ]
        return out


@dataclass(frozen=True)
class LRepresentation:
    """Single-block representation U = a (sum_k u_k <> v_k).

    All left factors live in a common H-truncation and are supported on
    pairwise disjoint coordinate blocks recorded in ``supports`` as
    (offset, size) row ranges; the right factors share a common truncation.
    """

    block: np.ndarray
    terms: tuple
    supports: tuple
    target: np.ndarray
    left_space: Quantization
    right_space: Quantization
    pairing: PairingMap = PairingMap()
    label: str = ""

    def __post_init__(self):
        block = np.asarray(self.block, dtype=complex)
        target = coeffs_of(self.target)
        terms = tuple((coeffs_of(u), coeffs_of(v)) for u, v in self.terms)
        supports = tuple((int(o), int(s)) for o, s in self.supports)
        if len(terms) != len(supports):
            raise ValueError("one support range per term is required")
        mE, mF = self.left_space.dim, self.right_space.dim
        if target.shape[1] != mE * mF:
            raise ValueError("target base dimension does not match the factor spaces")
        P = terms[0][0].shape[0] if terms else 0
        q = terms[0][1].shape[0] if terms else 1
        covered = np.zeros(P, dtype=bool)
        for (u, v), (off, size) in zip(terms, supports):
            if u.shape != (P, mE) or v.shape != (q, mF):
                raise ValueError("terms must share common embedded truncations")
            if off < 0 or off + size > P:
                raise ValueError("support range outside the embedded truncation")
            if covered[off : off + size].any():
                raise ValueError("support ranges overlap")
            covered[off : off + size] = True
            outside = u.copy()
            outside[off : off + size] = 0.0
            if np.linalg.norm(outside) > 1e-12 * max(np.linalg.norm(u), 1e-30):
                raise ValueError("left factor is not supported on its block")
        if block.shape != (target.shape[0], P * q) and terms:
            raise ValueError(
                f"block shape {block.shape} does not map the {P}x{q} diamond to the target"
            )
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "supports", supports)
        object.__setattr__(self, "target", target)
        res = self.residual()
        if res > RECON_TOL:
            raise ValueError(f"representation does not reconstruct its target (residual {res:.2e})")

    def reconstruct(self) -> np.ndarray:
        if not self.terms:
            return np.zeros_like(self.target)
        total = sum(diamond_amp(u, v, self.pairing) for u, v in self.terms)
        return self.block @ total

    def residual(self) -> float:
        scale = frobenius_norm(self.target) or 1.0
        return frobenius_norm(self.reconstruct() - self.target) / scale

    def term_norms(self, budget: int = 60, seed: int = 0) -> list:
        out = []
        for k, (u, v) in enumerate(self.terms):
            rng = make_rng(seed, "lrep", k)
            nu = amp_norm(self.left_space, u, budget=budget, rng=rng)
            nv = amp_norm(self.right_space, v, budget=budget, rng=rng)
            out.append((nu.value, nv.value))
        return out

    def value(self, budget: int = 60, seed: int = 0) -> float:
        """Certified upper bound for the l norm of the target."""
        if not self.terms:
            return 0.0
        sq = sum((a * b) ** 2 for a, b in self.term_norms(budget, seed))
        return float(op_norm(self.block) * math.sqrt(sq))

    def to_dict(self, include_data: bool = True) -> dict:
        out = {
            "kind": "l",
            "label": self.label,
            "n_terms": len(self.terms),
            "supports": [list(s) for s in self.supports],
            "pairing": self.pairing.scheme,
        }
        if include_data:
            out["block"] = matrix_to_json(self.block)
            out["terms"] = [
                {"left": matrix_to_json(u), "right": matrix_to_json(v)} for u, v in self.terms
            ]
        return out


@dataclass(frozen=True)
class NormBracket:
    """Certified two-sided bracket for a tensor norm value."""

    lower: float
    upper: float
    norm: str
    lower_witness: dict = field(default_factory=dict)
    upper_witness: Optional[object] = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper + 1e-9):
            raise AssertionError(
                f"unsound {self.norm} bracket: lower {self.lower!r} exceeds upper {self.upper!r}"
            )

    @property
    def gap(self) -> float:
        return max(0.0, self.upper - self.lower)

    @property
    def has_gap(self) -> bool:
        return self.gap > 1e-9 * max(1.0, self.upper)

    def to_dict(self, include_representation: bool = True) -> dict:
        rep = self.upper_witness
        return {
            "norm": self.norm,
            "lower": self.lower,
            "upper": self.upper,
            "gap": self.has_gap,
            "lower_witness": canonical(self.lower_witness),
            "upper_witness": rep.to_dict(include_representation) if rep is not None else None,
            "details": canonical(self.details),
        }


# -- upper-bound generators ---------------------------------------------------


def _basis_norms(q: Quantization, budget: int, seed: int) -> np.ndarray:
    out = np.empty(q.dim)
    for j in range(q.dim):
        e = np.zeros((1, q.dim), dtype=complex)
        e[0, j] = 1.0
        out[j] = amp_norm(q, e, budget=budget, rng=make_rng(seed, "basis", q.kind, j)).value
    return out


def _family_columns(U, E, F, nE, nF):
    """One elementary term per nonzero base column of U."""
    mF = F.dim
    terms, vals = [], []
    for c in range(U.shape[1]):
        col = U[:, c]
        w = float(np.linalg.norm(col))
        if w == 0.0:
            continue
        jE, jF = divmod(c, mF)
        left = np.zeros((1, E.dim), dtype=complex)
        left[0, jE] = 1.0
        right = np.zeros((1, mF), dtype=complex)
        right[0, jF] = 1.0
        terms.append((col[:, None], left, right))
        vals.append((w, nE[jE], nF[jF]))
    return terms, vals


def _family_svd_split(U, E, F, budget, seed):
    """H-side SVD, then an elementary split of each base-side singular vector."""
    mE, mF = E.dim, F.dim
    x, s, yh = np.linalg.svd(U, full_matrices=False)
    terms, vals = [], []
    for t in range(s.size):
        if s[t] <= 1e-14 * s[0]:
            break
        Y = yh[t].reshape(mE, mF)
        p, tau, qh = np.linalg.svd(Y, full_matrices=False)
        for r in range(tau.size):
            if tau[r] <= 1e-14 * max(tau[0], 1e-30):
                break
            block = (s[t] * tau[r]) * x[:, t : t + 1]
            left = p[:, r][None, :]
            right = qh[r][None, :]
            terms.append((block, left, right))
            rng = make_rng(seed, "svdsplit", t, r)
            nu = amp_norm(E, left, budget=budget, rng=rng).value
            nv = amp_norm(F, right, budget=budget, rng=rng).value
            vals.append((s[t] * tau[r], nu, nv))
    return terms, vals


def _family_unfold(U, E, F, budget, seed, side: str):
    """Identity-block terms from an SVD of one base-slot unfolding."""
    d = U.shape[0]
    mE, mF = E.dim, F.dim
    terms, vals = [], []
    eye = np.eye(d, dtype=complex)
    if side == "left":
        M = U.reshape(d, mE, mF).reshape(d * mE, mF)
    else:
        M = np.ascontiguousarray(U.reshape(d, mE, mF).transpose(0, 2, 1)).reshape(d * mF, mE)
    x, s, yh = np.linalg.svd(M, full_matrices=False)
    for t in range(s.size):
        if s[t] <= 1e-14 * s[0]:
            break
        rng = make_rng(seed, "unfold", side, t)
        if side == "left":
            left = (s[t] * x[:, t]).reshape(d, mE)
            right = yh[t][None, :]
        else:
            left = yh[t][None, :]
            right = (s[t] * x[:, t]).reshape(d, mF)
        terms.append((eye, left, right))
        nu = amp_norm(E, left, budget=budget, rng=rng).value
        nv = amp_norm(F, right, budget=budget, rng=rng).value
        vals.append((1.0, nu, nv))
    return terms, vals


def _family_identity_block(U, E, F, pairing, budget, seed):
    """Single term with identity factor coefficients; block = U times the
    inverse of the (unitary) identity diamond."""
    mE, mF = E.dim, F.dim
    if mE * mF > 4096:
        return None
    D = diamond_amp(np.eye(mE, dtype=complex), np.eye(mF, dtype=complex), pairing)
    block = U @ D.conj().T
    rng = make_rng(seed, "identity-block")
    nu = amp_norm(E, np.eye(mE, dtype=complex), budget=budget, rng=rng).value
    nv = amp_norm(F, np.eye(mF, dtype=complex), budget=budget, rng=rng).value
    eye = (np.eye(mE, dtype=complex), np.eye(mF, dtype=complex))
    return [(block, *eye)], [(op_norm(block), nu, nv)]


def _projective_base(q: Quantization) -> Optional[BaseNorm]:
    """Base descriptor when q's underlying norm is of projective type."""
    if q.kind == "max":
        return q.base
    if q.kind == "lp" and q.p == 1.0 and q.inner.dim == 1:
        return point_base(q)
    return None


def _family_projective(U, E, F, budget, seed, side: str):
    """Decompose against one projectively normed factor.

    Calls tensor_p_bracket, the routine of the TENSOR_P quantization, on the
    same seed stream, so the value agrees with amp_norm of the matching
    tensor quantization evaluated at (budget, seed).  None when the factor on
    that side is not of projective type.
    """
    d = U.shape[0]
    mE, mF = E.dim, F.dim
    if side == "left":
        base, other, W = _projective_base(E), F, U
    else:
        base, other = _projective_base(F), E
        W = np.ascontiguousarray(U.reshape(d, mE, mF).transpose(0, 2, 1)).reshape(d, mF * mE)
    if base is None:
        return None
    scale = float(np.linalg.norm(W))
    res, _ = tensor_p_bracket(base, other, W / scale, budget, make_rng(seed, "amp", "tensor_p"))
    eye = np.eye(d, dtype=complex)
    terms = []
    for xvec, flat in res.terms:
        V = scale * flat.reshape(d, other.dim)
        if side == "left":
            terms.append((eye, xvec[None, :], V))
        else:
            terms.append((eye, V, xvec[None, :]))
    vals = [(1.0, c * scale, 1.0) for c in res.values]
    return terms, vals, res.upper * scale, res.upper_method


# -- semi-Ruan screening of certificate targets --------------------------------


def _semi_ruan(q: Quantization) -> bool:
    """True only when the descriptor proves ||u + v||^2 <= ||u||^2 + ||v||^2
    for u, v on orthogonal H-blocks: min and hilbert, concrete (the column
    stack ||[A; B]||^2 <= ||A||^2 + ||B||^2), and lp with p >= 2 or one point,
    over a scalar or proved inner (the triangle inequality of l_(p/2) on the
    squared point norms).  False for every other descriptor, semi-Ruan or not."""
    if q.kind in ("min", "hilbert", "concrete"):
        return True
    return q.kind == "lp" and (q.p >= 2 or q.points == 1) and (q.inner.dim == 1 or _semi_ruan(q.inner))


def _l_pool(certs) -> list:
    """The certificates whose bounds count for l: an l lower bound counts
    only when its target is proved semi-Ruan; no search admits a target."""
    return [c for c in certs if _semi_ruan(c.target)]


# -- brackets -------------------------------------------------------------------


def _zero_bracket(norm, E, F, U, pairing):
    if norm == "pl":
        rep = PLRepresentation((), U, E, F, pairing, label="zero")
    else:
        rep = LRepresentation(np.zeros((U.shape[0], 0)), (), (), U, E, F, pairing, label="zero")
    return NormBracket(0.0, 0.0, norm, {"certificate": None}, rep, {"families": {}, "certificates": {}})


def _pl_families(U, E, F, budget, seed, pairing):
    """name -> (terms, pl value, info, term values (||block_k||, ||u_k||, ||v_k||)),
    the projective families giving (1, ||u_k|| ||v_k||, 1)."""
    b = max(budget // 4, 20)
    nE, nF = _basis_norms(E, b, seed), _basis_norms(F, b, seed)
    fam = {}
    for name, built in (
        ("columns", _family_columns(U, E, F, nE, nF)),
        ("svd-split", _family_svd_split(U, E, F, b, seed)),
        ("left-unfold", _family_unfold(U, E, F, b, seed, "left")),
        ("right-unfold", _family_unfold(U, E, F, b, seed, "right")),
        ("identity-block", _family_identity_block(U, E, F, pairing, b, seed)),
    ):
        if built is not None:
            t, vals = built
            fam[name] = (t, float(sum(a * nu * nv for a, nu, nv in vals)), {}, vals)
    for side in ("left", "right"):
        proj = _family_projective(U, E, F, budget, seed, side)
        if proj is not None:
            t, vals, value, method = proj
            fam["projective-" + side] = (t, value, {"method": method}, vals)
    return fam


def _l_candidate(terms, vals) -> tuple:
    """(l value, terms to orthogonalize) of one pl family, from its term values.

    Orthogonalized terms value ||[block_1 ... block_n]|| ||c||_2, c_k = ||u_k||
    ||v_k||: the zero-padding is an H-block isometry, which leaves amplified
    norms unchanged.  Balanced terms (block_k / t_k, t_k u_k, v_k), t_k^2 =
    a_k / c_k with a_k = ||block_k||, value at most sum_k a_k c_k, the pl
    value, by Cauchy-Schwarz and homogeneity; the lesser value wins.
    """
    a, nu, nv = np.array(vals).T
    c = nu * nv
    t = np.sqrt(a / c)
    balanced = [(blk / tk, tk * u, v) for (blk, u, v), tk in zip(terms, t)]
    return min(
        ((op_norm(np.hstack([blk for blk, _, _ in ts])) * float(np.linalg.norm(tc)), ts)
         for ts, tc in ((terms, c), (balanced, t * c))),
        key=lambda vt: vt[0],
    )


def _best_lower(cert_rows) -> tuple:
    lower, lw = 0.0, {"certificate": None}
    for name, val, info in cert_rows:
        if val > lower:
            lower, lw = val, {"certificate": name, **canonical(info)}
    return lower, lw


def _unit_brackets(norms, E, F, U, budget, seed, pairing, certificates=None) -> tuple:
    """(brackets of U/||U|| for norms out of ("pl", "l"), ||U||, coefficients of U).

    One family build and one certificate pass serve every requested norm: all
    certificates when pl is requested, else only the l pool (_l_pool).
    Passed certificates must have sources equal to (E, F) by to_dict(): a
    lower bound is sound only over its own sources.  The zero element gets
    the zero brackets.
    """
    U = coeffs_of(U)
    if U.shape[1] != E.dim * F.dim:
        raise ValueError(f"element has base dimension {U.shape[1]}, factors give {E.dim}*{F.dim}")
    if certificates is not None:
        certificates, pair = list(certificates), (E.to_dict(), F.to_dict())
        for cert in certificates:
            if tuple(q.to_dict() for q in cert.sources) != pair:
                raise ValueError(f"certificate {cert.name!r} was built for another factor pair")
    scale = frobenius_norm(U)
    if scale == 0.0:
        return tuple(_zero_bracket(norm, E, F, U, pairing) for norm in norms), scale, U
    unit = U / scale
    fam = _pl_families(unit, E, F, budget, seed, pairing)
    certs = builtin_certificates(E, F) if certificates is None else certificates
    pool = _l_pool(certs) if "l" in norms else []
    evaluated = certs if "pl" in norms else pool
    cert_rows = [(c.name, *c.evaluate_lower(unit, budget=budget, seed=seed)) for c in evaluated]
    out = {}
    if "pl" in norms:
        best_name, (best_terms, best_val, _, _) = min(fam.items(), key=lambda kv: kv[1][1])
        rep = PLRepresentation(tuple(best_terms), unit, E, F, pairing, label=best_name)
        details = {
            "families": {k: v[1] for k, v in fam.items()},
            "family_info": {k: v[2] for k, v in fam.items() if v[2]},
            "certificates": {name: val for name, val, _ in cert_rows},
            "method": best_name,
        }
        lower, lw = _best_lower(cert_rows)
        out["pl"] = NormBracket(lower, best_val, "pl", lw, rep, details)
    if "l" in norms:
        candidates = {}  # name -> (value, terms); a family that fails validation is skipped
        for name, (terms, _, _, term_values) in fam.items():
            try:
                PLRepresentation(tuple(terms), unit, E, F, pairing)
            except ValueError:
                continue
            candidates[name] = _l_candidate(terms, term_values)
        best_name, (best_val, best_terms) = min(candidates.items(), key=lambda kv: kv[1][0])
        plrep = PLRepresentation(tuple(best_terms), unit, E, F, pairing, label=best_name)
        best_rep = orthogonalize_representation(plrep)
        # pool rows by identity: certificates hold arrays, and names may repeat
        pooled = {id(c) for c in pool}
        l_rows = [row for c, row in zip(evaluated, cert_rows) if id(c) in pooled]
        details = {
            "families": {k + "+orth": v[0] for k, v in candidates.items()},
            "certificates": {name: val for name, val, _ in l_rows},
            "pool": [c.name for c in pool],
            "method": best_name + "+orth",
        }
        lower, lw = _best_lower(l_rows)
        out["l"] = NormBracket(lower, best_val, "l", lw, best_rep, details)
    return tuple(out[norm] for norm in norms), scale, U


def _rescaled(b: NormBracket, scale: float, U: np.ndarray) -> NormBracket:
    """The bracket of U from the bracket b of U/scale.

    b has passed the soundness assertion at unit scale; the lower bound is
    clamped to the upper one, as NormValue does, so rounding at large scales
    cannot trip the absolute 1e-9 check again.
    """
    upper = b.upper * scale
    lower = min(b.lower * scale, upper)
    rep = b.upper_witness
    if isinstance(rep, PLRepresentation):
        terms = tuple((scale * blk, left, right) for blk, left, right in rep.terms)
        rep = PLRepresentation(terms, U, rep.left_space, rep.right_space, rep.pairing, rep.label)
    else:
        rep = LRepresentation(
            scale * rep.block, rep.terms, rep.supports, U, rep.left_space, rep.right_space,
            rep.pairing, rep.label,
        )
    details = dict(b.details)
    for key in ("families", "certificates"):
        details[key] = {k: v * scale for k, v in b.details[key].items()}
    return NormBracket(lower, upper, b.norm, b.lower_witness, rep, details)


def pl_norm_bracket(
    E: Quantization,
    F: Quantization,
    U,
    budget: int = 200,
    seed: int = 0,
    pairing: PairingMap = PairingMap(),
    certificates: Optional[list] = None,
) -> NormBracket:
    """Bracket the pl norm of an amplified element of H (x) (E (x) F).

    The upper bound is the least value over the generated representation
    families; the lower bound is the best evaluation of the certificates,
    builtin_certificates(E, F) unless a list is passed.  Both are certified,
    and lower <= upper + 1e-9 is asserted on the unit-Frobenius element.
    Raises ValueError on non-finite input and on a passed certificate whose
    sources (Certificate.sources) are not (E, F).
    """
    (pl,), scale, U = _unit_brackets(("pl",), E, F, U, budget, seed, pairing, certificates)
    return _rescaled(pl, scale, U)


def l_norm_bracket(
    E: Quantization,
    F: Quantization,
    U,
    budget: int = 200,
    seed: int = 0,
    pairing: PairingMap = PairingMap(),
    certificates: Optional[list] = None,
) -> NormBracket:
    """Bracket the l norm: orthogonalized representations above, semi-Ruan
    certificates below.

    Every pl family that reconstructs the element is valued orthogonalized,
    plain or balanced (see _l_candidate), from its own term values; the upper
    bound is the least of these, so it is at most the pl upper, and only the
    winner is orthogonalized.  The lower bound is the best member of
    builtin_certificates(E, F), or of the passed list, in the l pool
    (details["pool"]): an l lower bound counts only when its target is proved
    semi-Ruan from its descriptor (_semi_ruan).  lower <= upper +
    1e-9 is asserted on the unit-Frobenius element.  Raises ValueError on
    non-finite input and on a passed certificate whose sources
    (Certificate.sources) are not (E, F).
    """
    (l,), scale, U = _unit_brackets(("l",), E, F, U, budget, seed, pairing, certificates)
    return _rescaled(l, scale, U)


def orthogonalize_representation(rep: PLRepresentation) -> LRepresentation:
    """Convert a pl representation into an l representation.

    Block-shift isometries move each term's left factor onto its own
    coordinate block (growing the left truncation to the sum of the term
    truncations); right factors are zero-padded to a common truncation; the
    blocks concatenate into the single l block.  Reconstruction is preserved
    exactly, and so is every amplified norm of a factor (the padding is an
    H-block isometry), which lets the l driver value the result, and the
    balanced terms it may pass in, without building it.
    """
    terms = rep.terms
    d = rep.target.shape[0]
    mE, mF = rep.left_space.dim, rep.right_space.dim
    if not terms:
        return LRepresentation(
            np.zeros((d, 0)), (), (), rep.target, rep.left_space, rep.right_space,
            rep.pairing, label=rep.label + "+orthogonalized",
        )
    P = sum(t[1].shape[0] for t in terms)
    q = max(t[2].shape[0] for t in terms)
    flat = rep.pairing.flat(P, q)
    block = np.zeros((d, P * q), dtype=complex)
    new_terms, supports = [], []
    off = 0
    for blk, left, right in terms:
        p_k, q_k = left.shape[0], right.shape[0]
        u = np.zeros((P, mE), dtype=complex)
        u[off : off + p_k] = left
        v = np.zeros((q, mF), dtype=complex)
        v[:q_k] = right
        cols = flat[off : off + p_k, :q_k].ravel()
        block[:, cols] = blk[:, rep.pairing.flat(p_k, q_k).ravel()]
        new_terms.append((u, v))
        supports.append((off, p_k))
        off += p_k
    return LRepresentation(
        block,
        tuple(new_terms),
        tuple(supports),
        rep.target,
        rep.left_space,
        rep.right_space,
        rep.pairing,
        label=rep.label + "+orthogonalized",
    )


def compare_pl_l(
    E: Quantization,
    F: Quantization,
    U,
    budget: int = 200,
    seed: int = 0,
    pairing: PairingMap = PairingMap(),
) -> dict:
    """Both brackets, from one family build and one certificate pass and equal
    to the standalone ones, and the sound cross-checks between them.

    Asserted (a failure is a bug): pl.lower >= l.lower - 1e-9, interval
    consistency l.lower <= pl.upper + 1e-9, every l-certificate value
    <= pl.upper + 1e-9, and l.upper <= pl.upper (1 + 1e-12), which the
    balanced orthogonalization ensures.  At H-truncation 1 the two underlying
    norms agree, so bracket overlap is reported there as a soft check.  All
    checks run on the brackets of the unit-Frobenius element, so they hold at
    every scale.
    """
    (pl, l), scale, U = _unit_brackets(("pl", "l"), E, F, U, budget, seed, pairing)
    checks = [
        ("pl_lower_ge_l_lower", pl.lower >= l.lower - 1e-9),
        ("l_lower_le_pl_upper", l.lower <= pl.upper + 1e-9),
        (
            "l_certificates_le_pl_upper",
            all(v <= pl.upper + 1e-9 for v in l.details["certificates"].values()),
        ),
        ("l_upper_le_pl_upper", l.upper <= pl.upper * (1 + 1e-12)),
    ]
    for name, ok in checks:
        if not ok:
            raise AssertionError(f"pl/l comparison failed sound check {name}")
    report = {
        "pl": _rescaled(pl, scale, U).to_dict(include_representation=False),
        "l": _rescaled(l, scale, U).to_dict(include_representation=False),
        "checks": [{"name": n, "passed": bool(ok)} for n, ok in checks],
        "separation_ratio": (pl.lower / l.upper) if l.upper > 0 else None,
    }
    if U.shape[0] == 1:
        # at truncation 1 both tensor norms restrict to the same underlying
        # norm; bracket overlap is a consistency signal, not a gate
        report["underlying_overlap"] = bool(
            pl.lower <= l.upper + 1e-9 and l.lower <= pl.upper + 1e-9
        )
    return report
