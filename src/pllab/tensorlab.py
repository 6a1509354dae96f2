"""Certified brackets for the pl and l tensor norms on H (x) (E (x) F).

Both norms are infima over structured representations of the element:

* pl: U = sum_k a_k (u_k <> v_k), value sum_k ||a_k|| ||u_k|| ||v_k||;
* l:  U = a (sum_k u_k <> v_k) with the u_k supported on pairwise
  orthogonal H-blocks, value ||a|| (sum_k ||u_k||^2 ||v_k||^2)^(1/2).

Upper bounds come from explicit representations (deterministic families),
lower bounds from the certificate catalog of :mod:`pllab.maps` and the
projective family: max(B) (x)_pl F = tensor_p(B, F) and L_1(w) (x)_pl F =
L_1(w; F), so one tensor_p bracket gives both.  Both norms are homogeneous:
every bound is found on U/||U|| and scaled back, lower <= upper + 1e-9 is
asserted there (a violation is a bug, never data), and the winning
representation is then built once, at U's scale, and validated.

The l norm never exceeds the pl norm.  One driver serves both: it builds the
pl representation families once, values their orthogonalizations, plain or
balanced, from the families' own term values as l upper bounds (no amplified
norm is evaluated again; see _l_candidate) and evaluates each certificate
once; an l lower bound counts only when its target is proved semi-Ruan from
its descriptor (Quantization.semi_ruan), with no search.  compare_pl_l thus
reports the standalone brackets of both norms, with l.upper <= pl.upper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bases import _keep_best
from .hilbert import PairingMap, block_of, coeffs_of, diamond_amp, frobenius_norm, op_norm, unit_scaled
from .maps import builtin_certificates, pair_element
from .projective import RECON_TOL
from .quantizations import Quantization, amp_norm, tensor_p_bracket
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
    block, left, right = block_of(block), coeffs_of(left), coeffs_of(right)
    if block.shape[1] != left.shape[0] * right.shape[0]:
        raise ValueError(
            f"block acts on a {block.shape[1]}-truncation but the diamond lives in "
            f"{left.shape[0] * right.shape[0]} dimensions"
        )
    return block, left, right


def _pair_norms(E: Quantization, F: Quantization, u, v, budget: int, rng) -> tuple:
    """(||u||_E, ||v||_F) of a factor pair: u valued first, then v, both from rng."""
    return amp_norm(E, u, budget=budget, rng=rng).value, amp_norm(F, v, budget=budget, rng=rng).value


class _Representation:
    """What the pl and l representations share: the reconstruction check,
    residual, the valuation of their factor pairs and the to_dict header.
    A subclass's _kind ("pl" or "l") heads to_dict and names its term streams."""

    def _validated(self, **fields) -> None:
        """Store the normalized fields, then check that they rebuild the target."""
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        res = self.residual()
        if res > RECON_TOL:
            raise ValueError(f"representation does not reconstruct its target (residual {res:.2e})")

    def residual(self) -> float:
        scale = frobenius_norm(self.target) or 1.0
        return frobenius_norm(self.reconstruct() - self.target) / scale

    def _pair_values(self, pairs, budget: int, seed: int) -> list:
        """(||u_k||, ||v_k||) of each factor pair, pair k on stream (seed, "<kind>rep", k)."""
        E, F, stream = self.left_space, self.right_space, self._kind + "rep"
        return [_pair_norms(E, F, u, v, budget, make_rng(seed, stream, k)) for k, (u, v) in enumerate(pairs)]

    def _header(self, **extra) -> dict:
        return {"kind": self._kind, "label": self.label, "n_terms": len(self.terms), **extra,
                "pairing": self.pairing.scheme}


@dataclass(frozen=True)
class PLRepresentation(_Representation):
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
    _kind = "pl"

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
        self._validated(terms=terms, target=target)

    def reconstruct(self) -> np.ndarray:
        out = np.zeros_like(self.target)
        for block, left, right in self.terms:
            out += block @ diamond_amp(left, right, self.pairing)
        return out

    def value(self, budget: int = 60, seed: int = 0) -> float:
        """Certified upper bound for the pl norm of the target."""
        norms = self._pair_values([(u, v) for _, u, v in self.terms], budget, seed)
        return float(sum(op_norm(block) * nu * nv for (block, _, _), (nu, nv) in zip(self.terms, norms)))

    def to_dict(self, include_data: bool = True) -> dict:
        out = self._header()
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
class LRepresentation(_Representation):
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
    _kind = "l"

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
        if block.shape != (target.shape[0], P * q):
            raise ValueError(
                f"block shape {block.shape} does not map the {P}x{q} diamond to the target"
            )
        self._validated(block=block, terms=terms, supports=supports, target=target)

    def reconstruct(self) -> np.ndarray:
        zero = np.zeros((self.block.shape[1], self.target.shape[1]), dtype=complex)
        return self.block @ sum((diamond_amp(u, v, self.pairing) for u, v in self.terms), zero)

    def value(self, budget: int = 60, seed: int = 0) -> float:
        """Certified upper bound for the l norm of the target."""
        sq = sum((a * b) ** 2 for a, b in self._pair_values(self.terms, budget, seed))
        return float(op_norm(self.block) * math.sqrt(sq))

    def to_dict(self, include_data: bool = True) -> dict:
        out = self._header(supports=[list(s) for s in self.supports])
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
            vals.append((s[t] * tau[r], *_pair_norms(E, F, left, right, budget, rng)))
    return terms, vals


def _swap(U, mE, mF):
    """U over E (x) F with its base slots exchanged, as an element over F (x) E."""
    d = U.shape[0]
    return np.ascontiguousarray(U.reshape(d, mE, mF).transpose(0, 2, 1)).reshape(d, mF * mE)


def _family_unfold(U, E, F, budget, seed, side: str):
    """Identity-block terms from an SVD of one base-slot unfolding; the right
    slot's are the left slot's of the swapped element, factors exchanged."""
    d = U.shape[0]
    if side == "left":
        W, mP, mQ, order = U, E.dim, F.dim, slice(None)
    else:
        W, mP, mQ, order = _swap(U, E.dim, F.dim), F.dim, E.dim, slice(None, None, -1)
    terms, vals = [], []
    eye = np.eye(d, dtype=complex)
    x, s, yh = np.linalg.svd(W.reshape(d * mP, mQ), full_matrices=False)
    for t in range(s.size):
        if s[t] <= 1e-14 * s[0]:
            break
        left, right = ((s[t] * x[:, t]).reshape(d, mP), yh[t][None, :])[order]
        terms.append((eye, left, right))
        vals.append((1.0, *_pair_norms(E, F, left, right, budget, make_rng(seed, "unfold", side, t))))
    return terms, vals


def _family_identity_block(U, E, F, pairing, budget, seed):
    """Single term with identity factor coefficients; block = U times the
    inverse of the (unitary) identity diamond."""
    mE, mF = E.dim, F.dim
    if mE * mF > 4096:
        return None
    D = diamond_amp(np.eye(mE, dtype=complex), np.eye(mF, dtype=complex), pairing)
    block = U @ D.conj().T
    eye = (np.eye(mE, dtype=complex), np.eye(mF, dtype=complex))
    nu, nv = _pair_norms(E, F, *eye, budget, make_rng(seed, "identity-block"))
    return [(block, *eye)], [(op_norm(block), nu, nv)]


# the projective family's lower-row names, by the projective factor's kind and side
_ROW_NAMES = {("max", "left"): "max-tensor-identity", ("lp", "left"): "l1-reshape",
              ("max", "right"): "max-tensor-identity-right", ("lp", "right"): "l1-reshape-right"}


def _family_projective(U, E, F, budget, seed, side: str):
    """Decompose against one projectively normed factor P, and bound below:
    P (x)_pl Q = tensor_p(P.projective_base, Q), so one tensor_p_bracket, on
    amp_norm's seed stream and on U as given, gives terms, upper and lower
    row, equal up to rounding to amp_norm of that quantization at (budget,
    seed).  The row counts for l where L_1(w; Q) is proved semi-Ruan (one atom
    beside a proved Q), never for max.  None when that side is not projective."""
    d = U.shape[0]
    if side == "left":
        P, Q, W, order = E, F, U, slice(None)
    else:
        P, Q, W, order = F, E, _swap(U, E.dim, F.dim), slice(None, None, -1)
    if P.projective_base is None:
        return None
    res = tensor_p_bracket(P.projective_base, Q, W, budget, make_rng(seed, "amp", "tensor_p"))
    eye = np.eye(d, dtype=complex)
    terms = [(eye, *(x[None, :], v.reshape(d, Q.dim))[order]) for x, v in res.terms]
    row = (_ROW_NAMES[P.kind, side], float(min(res.lower, res.upper)),
           {"target_method": "tensor_p/" + res.upper_method},
           P.kind == "lp" and P.dim == 1 and (Q.dim == 1 or Q.semi_ruan))
    return terms, [(1.0, c, 1.0) for c in res.values], res.upper, res.upper_method, row


# -- brackets -------------------------------------------------------------------


def _zero_bracket(norm, E, F, U, pairing):
    if norm == "pl":
        rep = PLRepresentation((), U, E, F, pairing, label="zero")
    else:
        rep = LRepresentation(np.zeros((U.shape[0], 0)), (), (), U, E, F, pairing, label="zero")
    return NormBracket(0.0, 0.0, norm, {"certificate": None}, rep, {"families": {}, "certificates": {}})


def _pl_families(U, E, F, budget, seed, pairing):
    """(families, rows): name -> (terms, pl value, info, term values (||block_k||, ||u_k||, ||v_k||)),
    the projective families giving (1, ||u_k|| ||v_k||, 1), and their lower rows, left first."""
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
    rows = []
    for side in ("left", "right"):
        proj = _family_projective(U, E, F, budget, seed, side)
        if proj is not None:
            t, vals, value, method, row = proj
            fam["projective-" + side] = (t, value, {"method": method}, vals)
            rows.append(row)
    return fam, rows


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


def _best_lower(rows) -> tuple:
    best, row = _keep_best((row[1], row) for row in rows)  # the greatest lower bound
    if not best > 0:
        return 0.0, {"certificate": None}
    return row[1], {"certificate": row[0], **canonical(row[2])}


def _brackets(norms, E, F, U, budget, seed, pairing, certificates=None) -> tuple:
    """(unit brackets, brackets) of U for norms out of ("pl", "l").

    Every bound is found on the unit element U/||U||, from one family build
    and one certificate pass: all certificates when pl is requested, else
    only those whose target Quantization.semi_ruan proves, which are the l
    rows; then each projective family's row, left first, whatever is passed.
    The unit bracket carries no witness; building it asserts lower <= upper
    + 1e-9.  Only then is the winning representation built, once, at U's
    scale: the winning unit terms with their blocks times ||U||, for l the
    plain or balanced terms that won (_l_candidate), orthogonalized.  It is
    validated on construction.  The bracket of U scales the unit numbers by
    ||U||, its lower bound clamped to its upper one, as NormValue does, so
    rounding at large scales cannot trip the absolute 1e-9 check again.
    Passed certificates must have sources equal to (E, F) by to_dict(): a
    lower bound is sound only over its own sources, and one whose bound its
    lb_estimate falsifies is refused, as is one named like a projective row
    or an earlier passed certificate, which details would hide.  The zero
    element gets the zero brackets.
    """
    if E.real or F.real:
        raise ValueError("the pl and l brackets do not take real-restricted factors")
    U, scale = pair_element(E, F, U)
    if certificates is not None:
        certificates, pair = list(certificates), (E.to_dict(), F.to_dict())
        taken = set(_ROW_NAMES.values())
        for cert in certificates:
            if cert.name in taken:
                raise ValueError(f"certificate {cert.name!r}: a projective row or an earlier one has its name")
            taken.add(cert.name)
            if tuple(q.to_dict() for q in cert.sources) != pair:
                raise ValueError(f"certificate {cert.name!r} was built for another factor pair")
            est = cert.lb_estimate
            if est is not None and est.lower > cert.bound * (1 + 1e-12):
                raise ValueError(f"certificate {cert.name!r}: its map's lb-norm is at least {est.lower!r}, "
                                 f"above its bound {cert.bound!r} (witness {canonical(est.witness)})")
    if scale == 0.0:
        zero = tuple(_zero_bracket(norm, E, F, U, pairing) for norm in norms)
        return zero, zero
    unit = unit_scaled(U, scale)
    fam, identifications = _pl_families(unit, E, F, budget, seed, pairing)
    certs = builtin_certificates(E, F) if certificates is None else certificates
    rows = [
        (c.name, *c.evaluate_lower(unit, budget=budget, seed=seed), c.target.semi_ruan)
        for c in certs
        if "pl" in norms or c.target.semi_ruan
    ] + identifications
    units, out = [], []
    for norm in norms:
        if norm == "pl":
            _, (name, (terms, upper, _, _)) = _keep_best((-v[1], (k, v)) for k, v in fam.items())
            norm_rows = rows
            details = {
                "families": {k: v[1] for k, v in fam.items()},
                "family_info": {k: v[2] for k, v in fam.items() if v[2]},
                "certificates": {row[0]: row[1] for row in norm_rows},
                "method": name,
            }
        else:
            candidates = {k: _l_candidate(v[0], v[3]) for k, v in fam.items()}
            _, (name, (upper, terms)) = _keep_best((-v[0], (k, v)) for k, v in candidates.items())
            norm_rows = [row for row in rows if row[3]]
            details = {
                "families": {k + "+orth": v[0] for k, v in candidates.items()},
                "certificates": {row[0]: row[1] for row in norm_rows},
                "pool": [row[0] for row in norm_rows],
                "method": name + "+orth",
            }
        lower, lw = _best_lower(norm_rows)
        units.append(NormBracket(lower, upper, norm, lw, None, details))
        terms = tuple((scale * blk, u, v) for blk, u, v in terms)
        rep = PLRepresentation(terms, U, E, F, pairing, label=name)
        if norm == "l":
            rep = orthogonalize_representation(rep)
        details = dict(details)
        for key in ("families", "certificates"):
            details[key] = {k: v * scale for k, v in details[key].items()}
        upper *= scale
        out.append(NormBracket(min(lower * scale, upper), upper, norm, lw, rep, details))
    return tuple(units), tuple(out)


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
    families; the lower bound is the best of the certificates (those of
    builtin_certificates(E, F) unless a list is passed) and the projective
    families' rows.  Values within 1e-14 relative of the best tie, and the
    first in order wins (bases._keep_best), so the witnesses do not follow
    rounding.  Both bounds are certified, and lower <= upper + 1e-9 is
    asserted on the unit-Frobenius element.
    Raises ValueError on non-finite input, on a real-restricted factor (the
    searches run on complex data) and on a passed certificate whose sources
    (Certificate.sources) are not (E, F), whose bound lb_estimate falsifies
    or whose name a projective row or an earlier passed certificate has.
    """
    _, (pl,) = _brackets(("pl",), E, F, U, budget, seed, pairing, certificates)
    return pl


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

    Every pl family is valued orthogonalized, plain or balanced (see
    _l_candidate), from its own term values; the upper bound is the least of
    these, so it is at most the pl upper, and only the winner is built.  The
    lower bound is the best member of builtin_certificates(E, F), or of the
    passed list, and of the projective rows, in the l pool (details["pool"]):
    an l lower bound counts only when its target is proved semi-Ruan from
    its descriptor (Quantization.semi_ruan).  lower <= upper + 1e-9 is
    asserted on the unit-Frobenius element.  Raises ValueError as
    pl_norm_bracket does.
    """
    _, (l,) = _brackets(("l",), E, F, U, budget, seed, pairing, certificates)
    return l


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
    P = sum(t[1].shape[0] for t in terms)
    q = max((t[2].shape[0] for t in terms), default=0)
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
    (pl, l), brackets = _brackets(("pl", "l"), E, F, U, budget, seed, pairing)
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
        "pl": brackets[0].to_dict(include_representation=False),
        "l": brackets[1].to_dict(include_representation=False),
        "checks": [{"name": n, "passed": bool(ok)} for n, ok in checks],
        "separation_ratio": (pl.lower / l.upper) if l.upper > 0 else None,
    }
    if coeffs_of(U).shape[0] == 1:
        # at truncation 1 both tensor norms restrict to the same underlying
        # norm; bracket overlap is a consistency signal, not a gate
        report["underlying_overlap"] = bool(
            pl.lower <= l.upper + 1e-9 and l.lower <= pl.upper + 1e-9
        )
    return report
