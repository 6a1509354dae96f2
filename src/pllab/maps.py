"""Maps between quantized spaces: amplification, lb-norms, certificates.

A LinearMap or BilinearMap acts on base coefficients; its amplification acts
on amplified elements by fixing the H slot (and, for bilinear maps, pairing
the two H slots with the diamond product).  The lb-norm of a map is the
supremum of amplified norm ratios over all truncations; ``lb_norm_lower``
produces certified lower bounds for it, exactly for functionals and for
Frobenius-to-Frobenius maps.

Certificates package contractive bilinear maps into exactly evaluable
targets; the linearized image of an amplified element through a certificate
is a sound lower bound for its pl tensor norm, and for its l norm only when
the target is proved semi-Ruan from its descriptor (tensorlab._semi_ruan).
``builtin_certificates`` assembles every catalog entry applicable to a factor
pair; a user certificate is built for one pair and reaches the brackets only
through their ``certificates=`` argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bases import BaseNorm, DualMax
from .hilbert import PairingMap, coeffs_of
from .quantizations import NormValue, Quantization, amp_norm, point_base, underlying_norm
from .sampling import make_rng, random_complex
from .wire import matrix_to_json

__all__ = [
    "LinearMap",
    "BilinearMap",
    "LbNormEstimate",
    "Certificate",
    "amplify_linear",
    "amplify_bilinear",
    "lb_norm_lower",
    "builtin_certificates",
]


@dataclass(frozen=True)
class LinearMap:
    """Linear map between quantized spaces, acting on base coefficients.

    matrix has shape (source dim, target dim); the amplification sends the
    coefficient matrix U to U @ matrix, leaving the H slot alone.
    """

    matrix: np.ndarray
    source: Quantization
    target: Quantization
    provenance: str = ""

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.source.dim, self.target.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not map dim {self.source.dim} to {self.target.dim}"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def is_functional(self) -> bool:
        return self.target.dim == 1

    def to_dict(self) -> dict:
        return {
            "matrix": matrix_to_json(self.matrix),
            "source": self.source.to_dict(),
            "target": self.target.to_dict(),
            "provenance": self.provenance,
        }


@dataclass(frozen=True)
class BilinearMap:
    """Bilinear map r: E x F -> G given by a coefficient tensor.

    tensor[j, k, g] is the g-th target coordinate of r(e_j, f_k).
    """

    tensor: np.ndarray
    source_left: Quantization
    source_right: Quantization
    target: Quantization
    provenance: str = ""

    def __post_init__(self):
        t = np.asarray(self.tensor, dtype=complex)
        expect = (self.source_left.dim, self.source_right.dim, self.target.dim)
        if t.shape != expect:
            raise ValueError(f"tensor shape {t.shape}, expected {expect}")
        object.__setattr__(self, "tensor", t)

    @property
    def linearized_matrix(self) -> np.ndarray:
        """Matrix of the linearization E (x) F -> G in the row-major base layout."""
        mE, mF, mG = self.tensor.shape
        return self.tensor.reshape(mE * mF, mG)

    def to_dict(self) -> dict:
        return {
            "tensor_shape": list(self.tensor.shape),
            "source_left": self.source_left.to_dict(),
            "source_right": self.source_right.to_dict(),
            "target": self.target.to_dict(),
            "provenance": self.provenance,
        }


def amplify_linear(phi: LinearMap, u) -> np.ndarray:
    """Coefficient matrix of (id (x) phi)(u)."""
    U = coeffs_of(u)
    if U.shape[1] != phi.source.dim:
        raise ValueError("element does not live over the source of the map")
    return U @ phi.matrix


def amplify_bilinear(r: BilinearMap, u, v, pairing: PairingMap = PairingMap()) -> np.ndarray:
    """Coefficient matrix of r_inf(u, v) over the target base.

    r_inf(xi x, eta y) = (xi <> eta) r(x, y); the H slots are paired by the
    given scheme.
    """
    U = coeffs_of(u)
    V = coeffs_of(v)
    if U.shape[1] != r.source_left.dim or V.shape[1] != r.source_right.dim:
        raise ValueError("elements do not live over the sources of the map")
    t = np.einsum("ie,kf,efg->ikg", U, V, r.tensor)
    t = t.reshape(U.shape[0] * V.shape[0], r.target.dim)
    out = np.empty_like(t)
    out[pairing.flat(U.shape[0], V.shape[0]).ravel()] = t
    return out


# -- underlying dual machinery ------------------------------------------------


def underlying_dual_norm(q: Quantization, c) -> Optional[float]:
    """Exact dual norm of a functional on the underlying space, when closed form."""
    c = np.asarray(c, dtype=complex).ravel()
    if q.kind in ("min", "max"):
        return q.base.dual_norm(c)
    if q.kind == "hilbert":
        return float(np.linalg.norm(c))
    if q.kind == "lp":
        mi = q.inner.dim
        if mi == 1:
            return point_base(q).dual_norm(c)
        pointwise = []
        for t in range(q.points):
            dn = underlying_dual_norm(q.inner, c[t * mi : (t + 1) * mi])
            if dn is None:
                return None
            pointwise.append(dn)
        return point_base(q).dual_norm(np.asarray(pointwise))
    return None


def underlying_dual_maximize(q: Quantization, A: np.ndarray, rng, starts: int = 6) -> DualMax:
    """sup of ||A f||_2 over the dual unit ball of q's underlying norm.

    The witness is always feasible, so the lower field is certified for any
    kind; exactness holds only where the base machinery is exact.
    """
    A = np.asarray(A, dtype=complex)
    if q.kind in ("min", "max"):
        return q.base.dual_ball_maximize(A, rng=rng, starts=starts)
    if q.kind == "hilbert":
        return BaseNorm.euclidean(q.dim).dual_ball_maximize(A, rng=rng)
    if q.kind == "lp":
        mi = q.inner.dim
        scalar = point_base(q)
        if mi == 1:
            return scalar.dual_ball_maximize(A, rng=rng, starts=starts)
        # per-point inner witnesses, outer weights through the scalar dual ball
        ys = []
        phis = []
        for t in range(q.points):
            inner_dm = underlying_dual_maximize(q.inner, A[:, t * mi : (t + 1) * mi], rng, starts=2)
            phis.append(inner_dm.witness)
            ys.append(A[:, t * mi : (t + 1) * mi] @ inner_dm.witness)
        M = np.stack(ys, axis=1)
        outer = scalar.dual_ball_maximize(M, rng=rng, starts=starts)
        f = np.concatenate([outer.witness[t] * phis[t] for t in range(q.points)])
        val = float(np.linalg.norm(A @ f))
        return DualMax(val, np.inf, f, False)
    if q.kind == "concrete":
        return _concrete_dual_maximize(q, A, rng, starts)
    # tensor_p: elementary functionals phi (x) psi
    return _tensor_p_dual_maximize(q, A, rng, starts)


def _concrete_dual_maximize(q: Quantization, A, rng, starts) -> DualMax:
    gens = np.stack(q.generators)  # (m, L, K)
    L, K = gens.shape[1], gens.shape[2]
    best_val, best_f = -1.0, None
    for s in range(starts):
        v = random_complex(rng, K)
        v /= np.linalg.norm(v)
        w = random_complex(rng, L)
        w /= np.linalg.norm(w)
        for _ in range(12):
            # f_j = w^H T_j v; alternate SVD steps in v and conj(w)
            P = np.einsum("l,mlk->mk", np.conj(w), gens)  # (m, K)
            B = A @ P
            _, _, vh = np.linalg.svd(B, full_matrices=False)
            v = vh[0].conj()
            Qm = np.einsum("mlk,k->ml", gens, v)  # (m, L): f = Qm^T-bar pairing with w
            Bw = A @ np.conj(Qm)
            _, _, wh = np.linalg.svd(Bw, full_matrices=False)
            w = wh[0]  # conj handled below
            w = np.conj(w)
        f = np.einsum("l,mlk,k->m", np.conj(w), gens, v)
        val = float(np.linalg.norm(A @ f))
        if val > best_val:
            best_val, best_f = val, f
    return DualMax(best_val, np.inf, best_f, False)


def _tensor_p_dual_maximize(q: Quantization, A, rng, starts) -> DualMax:
    mE, mF = q.base.dim, q.inner.dim
    T = A.reshape(A.shape[0], mE, mF)
    best_val, best_f = -1.0, None
    for s in range(starts):
        psi_dm = underlying_dual_maximize(
            q.inner, T.mean(axis=1) if s == 0 else random_complex(rng, A.shape[0], mF), rng, starts=2
        )
        psi = psi_dm.witness
        phi = None
        for _ in range(6):
            Apsi = np.einsum("ijk,k->ij", T, psi)
            dmE = q.base.dual_ball_maximize(Apsi, rng=rng, starts=2)
            phi = dmE.witness
            Aphi = np.einsum("ijk,j->ik", T, phi)
            dmF = underlying_dual_maximize(q.inner, Aphi, rng, starts=2)
            psi = dmF.witness
        f = np.multiply.outer(phi, psi).ravel()
        val = float(np.linalg.norm(A @ f))
        if val > best_val:
            best_val, best_f = val, f
    return DualMax(best_val, np.inf, best_f, False)


def _norming_candidates(q: Quantization, c: np.ndarray, rng, n_random: int = 6) -> list:
    """Elements x with certified underlying-norm upper bounds, aimed at |c . x|."""
    c = np.asarray(c, dtype=complex).ravel()
    out = []

    def add(x):
        x = np.asarray(x, dtype=complex).ravel()
        if not np.any(x):
            return
        out.append((x, underlying_norm(q, x)))

    if q.kind in ("min", "max"):
        add(q.base.primal_align(c))
    elif q.kind == "hilbert":
        add(np.conj(c))
    elif q.kind == "lp" and q.inner.dim == 1:
        add(point_base(q).primal_align(c))
    elif q.kind == "lp":
        mi = q.inner.dim
        blocks, scores, uppers = [], [], []
        for t in range(q.points):
            cands = _norming_candidates(q.inner, c[t * mi : (t + 1) * mi], rng, n_random=2)
            if not cands:
                blocks.append(np.zeros(mi, dtype=complex))
                scores.append(0.0)
                uppers.append(1.0)
                continue
            y, up = max(cands, key=lambda xy: abs(np.dot(c[t * mi : (t + 1) * mi], xy[0])) / max(xy[1], 1e-30))
            blocks.append(y)
            scores.append(abs(np.dot(c[t * mi : (t + 1) * mi], y)) / max(up, 1e-30))
            uppers.append(max(up, 1e-30))
        s = point_base(q).primal_align(np.asarray(scores, dtype=complex))
        x = np.concatenate([s[t] / uppers[t] * blocks[t] for t in range(q.points)])
        add(x)
    elif q.kind == "tensor_p":
        C = c.reshape(q.base.dim, q.inner.dim)
        b_cands = _norming_candidates(q.inner, C.mean(axis=0), rng, n_random=2) or [
            (np.ones(q.inner.dim, dtype=complex), underlying_norm(q, np.ones(q.dim, dtype=complex)))
        ]
        b = b_cands[0][0]
        a = None
        for _ in range(4):
            a = q.base.primal_align(C @ b)
            b_cands = _norming_candidates(q.inner, a @ C, rng, n_random=1)
            if b_cands:
                b = b_cands[0][0]
        add(np.multiply.outer(a, b).ravel())
    for _ in range(n_random):
        add(random_complex(rng, q.dim, real=(q.base.real if q.base is not None else False)))
    if q.kind != "hilbert":
        add(np.conj(c))
    return out


# -- lb-norm lower bounds ------------------------------------------------------


@dataclass(frozen=True)
class LbNormEstimate:
    """Certified lower bound for the lb-norm of a map."""

    lower: float
    exact: bool
    method: str
    witness: dict = field(default_factory=dict)


def lb_norm_lower(
    phi,
    budget: int = 200,
    seed: int = 0,
    use_closed_forms: bool = True,
) -> LbNormEstimate:
    """Lower-bound the lb-norm sup ||phi_inf(U)|| / ||U||.

    Ratios are evaluated as target-lower over source-upper, so the estimate
    never exceeds the true lb-norm even on bracketed kinds.  Closed forms:
    functionals (the dual norm) and Frobenius-to-Frobenius maps (the largest
    singular value of the coefficient matrix).
    """
    rng = make_rng(seed, "lbnorm")
    if isinstance(phi, BilinearMap):
        return _lb_lower_bilinear(phi, budget, rng, use_closed_forms)
    if use_closed_forms and phi.is_functional:
        dn = underlying_dual_norm(phi.source, phi.matrix[:, 0])
        if dn is not None:
            return LbNormEstimate(dn, True, "functional/dual-norm")
    if use_closed_forms and phi.source.kind == "hilbert" and phi.target.kind == "hilbert":
        v = float(np.linalg.norm(phi.matrix, 2))
        return LbNormEstimate(v, True, "hilbert/operator-norm")
    return _lb_lower_linear_search(phi, budget, rng)


def _ratio_linear(phi: LinearMap, U: np.ndarray, budget: int, rng) -> float:
    den = amp_norm(phi.source, U, budget=budget, rng=rng).value
    if den <= 0:
        return 0.0
    num = amp_norm(phi.target, U @ phi.matrix, budget=budget, rng=rng).lower
    return num / den


def _lb_lower_linear_search(phi: LinearMap, budget: int, rng) -> LbNormEstimate:
    starts = max(2, budget // 50)
    inner_budget = 40
    best, best_U = 0.0, None
    if phi.is_functional:
        c = phi.matrix[:, 0]
        for x, up in _norming_candidates(phi.source, c, rng):
            if up <= 0:
                continue
            val = abs(np.dot(c, x)) / up
            if val > best:
                best, best_U = val, x[None, :]
    for s in range(starts):
        d = 1 + s % 3
        U = random_complex(rng, d, phi.source.dim)
        val = _ratio_linear(phi, U, inner_budget, rng)
        for _ in range(50):
            step = 0.3 * random_complex(rng, d, phi.source.dim)
            cand = U + step
            v2 = _ratio_linear(phi, cand, inner_budget, rng)
            if v2 > val:
                U, val = cand, v2
        if val > best:
            best, best_U = val, U
    return LbNormEstimate(
        best, False, "search/sampled-ascent", {"element": best_U}
    )


def _ratio_bilinear(r: BilinearMap, U, V, budget, rng, pairing=PairingMap()) -> float:
    du = amp_norm(r.source_left, U, budget=budget, rng=rng).value
    dv = amp_norm(r.source_right, V, budget=budget, rng=rng).value
    if du <= 0 or dv <= 0:
        return 0.0
    W = amplify_bilinear(r, U, V, pairing)
    return amp_norm(r.target, W, budget=budget, rng=rng).lower / (du * dv)


def _lb_lower_bilinear(r: BilinearMap, budget: int, rng, use_closed_forms: bool = True) -> LbNormEstimate:
    starts = max(2, budget // 50)
    inner_budget = 40
    best, best_pair = 0.0, None
    T = r.tensor

    if r.target.dim == 1:
        # scalar-valued: d=1 ratios are exact quotients |x C y| / (||x|| ||y||)
        C = T[:, :, 0]
        s = np.linalg.svd(C, compute_uv=False)
        if use_closed_forms and s.size and (s.size == 1 or s[1] <= 1e-12 * s[0]):
            # rank-one C = f g^T; recover the factors from the SVD
            uu, ss, vv = np.linalg.svd(C)
            f = uu[:, 0] * ss[0]
            g = vv[0]
            dn_f = underlying_dual_norm(r.source_left, f)
            dn_g = underlying_dual_norm(r.source_right, g)
            if dn_f is not None and dn_g is not None:
                return LbNormEstimate(
                    dn_f * dn_g, True, "functional-product/dual-norms", {"f": f, "g": g}
                )
        cand_L = _norming_candidates(r.source_left, C @ np.ones(C.shape[1]), rng, n_random=3)
        uu, ss, vv = np.linalg.svd(C)
        cand_L += _norming_candidates(r.source_left, uu[:, 0], rng, n_random=0)
        cand_R = _norming_candidates(r.source_right, vv[0], rng, n_random=3)
        for x, ux in cand_L:
            if ux <= 0:
                continue
            # best y for this x by aligning against x C
            for y, uy in _norming_candidates(r.source_right, x @ C, rng, n_random=1) + cand_R:
                if uy <= 0:
                    continue
                val = abs(x @ C @ y) / (ux * uy)
                if val > best:
                    best, best_pair = val, (x[None, :], y[None, :])

    # elementary candidates from per-factor norming data
    for x, ux in _norming_candidates(r.source_left, T.sum(axis=(1, 2)).conj(), rng, n_random=2):
        for y, uy in _norming_candidates(r.source_right, T.sum(axis=(0, 2)).conj(), rng, n_random=2):
            if ux <= 0 or uy <= 0:
                continue
            val = _ratio_bilinear(r, x[None, :], y[None, :], inner_budget, rng)
            if val > best:
                best, best_pair = val, (x[None, :], y[None, :])

    all_hilbert = (
        r.source_left.kind == "hilbert"
        and r.source_right.kind == "hilbert"
        and r.target.kind == "hilbert"
    )
    for s in range(starts):
        d = 1 + s % 2
        U = random_complex(rng, d, r.source_left.dim)
        V = random_complex(rng, d, r.source_right.dim)
        if all_hilbert:
            U, V = _alternate_hilbert(r, U, V, rounds=8)
            val = _ratio_bilinear(r, U, V, inner_budget, rng)
        else:
            val = _ratio_bilinear(r, U, V, inner_budget, rng)
            for _ in range(50):
                if rng.random() < 0.5:
                    U2, V2 = U + 0.3 * random_complex(rng, *U.shape), V
                else:
                    U2, V2 = U, V + 0.3 * random_complex(rng, *V.shape)
                v2 = _ratio_bilinear(r, U2, V2, inner_budget, rng)
                if v2 > val:
                    U, V, val = U2, V2, v2
        if val > best:
            best, best_pair = val, (U, V)
    witness = {} if best_pair is None else {"u": best_pair[0], "v": best_pair[1]}
    return LbNormEstimate(best, False, "search/alternating", witness)


def _alternate_hilbert(r: BilinearMap, U, V, rounds: int) -> tuple:
    """Alternating SVD steps for Frobenius-normed sources and target."""
    for _ in range(rounds):
        # with V fixed, the Frobenius ratio is maximized by the top left
        # singular vector of the matrix sending U-rows to image rows
        M = np.einsum("kf,efg->ekg", V, r.tensor).reshape(r.source_left.dim, -1)
        u_, s_, vh_ = np.linalg.svd(M, full_matrices=False)
        x = u_[:, 0].conj()
        U = x[None, :] * np.linalg.norm(U)
        Mv = np.einsum("ie,efg->fig", U, r.tensor).reshape(r.source_right.dim, -1)
        u2, s2, vh2 = np.linalg.svd(Mv, full_matrices=False)
        y = u2[:, 0].conj()
        V = y[None, :] * np.linalg.norm(V)
    return U, V


# -- certificates ---------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Contractive bilinear map into an exactly evaluable target.

    For an amplified element U over E (x) F, ``evaluate_lower`` returns a
    certified lower bound for ||U||_pl (and for ||U||_l when the target is
    proved semi-Ruan from its descriptor): the target's certified lower
    bound of the linearized image, divided by the certified lb-bound of the
    map.  The bound is trusted as stated, so it must be positive and finite,
    and target must be the bilinear map's target.  The value is sound only
    over the factor pair of ``sources``; the brackets reject any other.
    """

    name: str
    provenance: str
    target: Quantization
    bilinear: Optional[BilinearMap] = None  # None for the adaptive functional-pair family
    bound: float = 1.0
    left: Optional[Quantization] = None
    right: Optional[Quantization] = None

    def __post_init__(self):
        if not (self.bound > 0 and math.isfinite(self.bound)):
            raise ValueError(f"certificate {self.name!r}: bound {self.bound!r} is not positive and finite")
        if self.bilinear is not None and self.target.to_dict() != self.bilinear.target.to_dict():
            raise ValueError(f"certificate {self.name!r}: target differs from the bilinear map's target")
        if any(q is None for q in self.sources):
            raise ValueError(f"certificate {self.name!r}: a functional pair needs left and right")

    @property
    def sources(self) -> tuple:
        """The factor pair (E, F) this certificate was built for."""
        if self.bilinear is None:
            return self.left, self.right
        return self.bilinear.source_left, self.bilinear.source_right

    def evaluate_lower(self, U: np.ndarray, budget: int = 200, seed: int = 0):
        rng = make_rng(seed, "certificate", self.name)
        U = np.asarray(U, dtype=complex)
        if self.bilinear is not None:
            W = U @ self.bilinear.linearized_matrix
            nv = amp_norm(self.target, W, budget=budget, rng=rng)
            return nv.lower / self.bound, {"certificate": self.name, "target_method": nv.method}
        val, f, g = _functional_pair_lower(self.left, self.right, U, budget, rng)
        return val / self.bound, {
            "certificate": self.name,
            "functional_left": f,
            "functional_right": g,
        }

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "provenance": self.provenance,
            "bound": self.bound,
            "target": self.target.to_dict(),
        }
        if self.bilinear is not None:
            out["bilinear"] = self.bilinear.to_dict()
        return out


def _functional_pair_lower(E: Quantization, F: Quantization, U: np.ndarray, budget: int, rng):
    """Best ||sum_jk f_j g_k U[:,(j,k)]||_2 over certified dual-ball pairs."""
    mE, mF = E.dim, F.dim
    T = U.reshape(U.shape[0], mE, mF)
    rounds = 6
    starts = max(2, budget // 60)
    best, best_f, best_g = 0.0, None, None
    for s in range(starts):
        if s == 0:
            # start from the euclidean proxy on the right slot
            B = T.reshape(U.shape[0] * mE, mF)
            g = underlying_dual_maximize(F, B, rng, starts=2).witness
        else:
            g = underlying_dual_maximize(
                F, random_complex(rng, max(2, U.shape[0]), mF), rng, starts=1
            ).witness
        f = None
        for _ in range(rounds):
            Ag = np.einsum("ijk,k->ij", T, g)
            f = underlying_dual_maximize(E, Ag, rng, starts=2).witness
            Bf = np.einsum("ijk,j->ik", T, f)
            g = underlying_dual_maximize(F, Bf, rng, starts=2).witness
        if f is None or g is None:
            continue
        val = float(np.linalg.norm(np.einsum("ijk,j,k->i", T, f, g)))
        if val > best:
            best, best_f, best_g = val, f, g
    return best, best_f, best_g


def _identity_reindex_tensor(mE: int, mF: int) -> np.ndarray:
    t = np.zeros((mE, mF, mE * mF), dtype=complex)
    for j in range(mE):
        for k in range(mF):
            t[j, k, j * mF + k] = 1.0
    return t


def builtin_certificates(E: Quantization, F: Quantization) -> list:
    """Catalog certificates applicable to the pair (E, F), and nothing else.

    Every entry carries a certified lb-bound of 1; lower bounds obtained
    through them are sound for the pl norm, and count for the l norm only
    when the target is proved semi-Ruan from its descriptor.  User
    certificates built for (E, F) go to a bracket's certificates= argument,
    with this list or without it.
    """
    certs = [
        Certificate(
            name="functional-pair",
            provenance="norming functional pairs; lb-norm of f x g equals ||f|| ||g||",
            target=Quantization.scalar(),
            left=E,
            right=F,
        )
    ]
    if E.kind == "hilbert" and F.kind == "hilbert" and E.dim == F.dim:
        n = E.dim
        diag = np.zeros((n, n, n), dtype=complex)
        for j in range(n):
            diag[j, j, j] = 1.0
        certs.append(
            Certificate(
                name="coordinate-multiplication-l1",
                provenance="coordinatewise multiplication of Frobenius-quantized l2 factors into weighted-l1",
                target=Quantization.lp(1.0, np.ones(n)),
                bilinear=BilinearMap(
                    diag,
                    E,
                    F,
                    Quantization.lp(1.0, np.ones(n)),
                    provenance="coordinatewise multiplication into l1",
                ),
            )
        )
        certs.append(
            Certificate(
                name="coordinate-multiplication-l2",
                provenance="coordinatewise multiplication of Frobenius-quantized l2 factors into l2",
                target=Quantization.hilbert(n),
                bilinear=BilinearMap(
                    diag,
                    E,
                    F,
                    Quantization.hilbert(n),
                    provenance="coordinatewise multiplication into l2",
                ),
            )
        )
    hilbert_like = lambda q: q.kind == "hilbert" or q.is_min_euclidean()
    if hilbert_like(E) and hilbert_like(F):
        target = Quantization.min(BaseNorm.euclidean(E.dim * F.dim))
        certs.append(
            Certificate(
                name="hilbert-tensor-embedding",
                provenance="canonical bilinear map into the injectively quantized Hilbert tensor product",
                target=target,
                bilinear=BilinearMap(
                    _identity_reindex_tensor(E.dim, F.dim), E, F, target,
                    provenance="canonical map into the Hilbert tensor product",
                ),
            )
        )
    if E.kind == "max":
        target = Quantization.tensor_p(E.base, F)
        certs.append(
            Certificate(
                name="max-tensor-identity",
                provenance="identity of a projectively quantized base into the base-projective tensor quantization",
                target=target,
                bilinear=BilinearMap(
                    _identity_reindex_tensor(E.dim, F.dim), E, F, target,
                    provenance="canonical map of a projective factor into the tensor quantization",
                ),
            )
        )
    if E.kind == "lp" and E.p == 1.0 and E.inner.dim == 1:
        target = Quantization.lp(1.0, E.weights, inner=F)
        certs.append(
            Certificate(
                name="l1-reshape",
                provenance="weighted-l1 factor absorbed into vector-valued weighted-l1 over the same atoms",
                target=target,
                bilinear=BilinearMap(
                    _identity_reindex_tensor(E.dim, F.dim), E, F, target,
                    provenance="reshape of an l1 factor against the second factor",
                ),
            )
        )
    return certs


def embedding_map(p: float, weights, F: Quantization) -> BilinearMap:
    """Bilinear map L_p(X) x F -> L_p(X, F), (z, x) -> (t -> z(t) x).

    Its amplified ratio achieves equality: ||r_inf(w, u)|| = ||w|| ||u||.
    """
    w = np.asarray(weights, dtype=float)
    E = Quantization.lp(p, w)
    target = Quantization.lp(p, w, inner=F)
    return BilinearMap(
        _identity_reindex_tensor(w.size, F.dim),
        E,
        F,
        target,
        provenance="embedding of a scalar L_p factor into vector-valued L_p",
    )
