"""Maps between quantized spaces: amplification, lb-norms, certificates.

A LinearMap or BilinearMap acts on base coefficients; its amplification acts
on amplified elements by fixing the H slot (and, for bilinear maps, pairing
the two H slots with the diamond product).  The lb-norm of a map is the
supremum of amplified norm ratios over all truncations; ``lb_norm_lower``
produces certified lower bounds for it, exactly for functionals and for
Frobenius-to-Frobenius maps; its search runs one ratio and one loop of hill
climbs for both map kinds, a linear map being the one-source case.  A
functional's climbs value one-row elements only: module contractivity gives
||U c||_2 <= ||c||_* ||U||_q, so its lb-norm, the underlying dual norm, is
attained at d = 1.  Where that dual norm has a closed form, the search
values its norming candidates in order and stops at the first that meets it
to TIE_RTOL, exact, valuing no later candidate and running no climb: no
later value, a certified lower, could beat it.

Certificates package contractive bilinear maps into exactly evaluable
targets; the linearized image of an amplified element through a certificate
is a sound lower bound for its pl tensor norm, and for its l norm only when
the target is proved semi-Ruan from its descriptor (Quantization.semi_ruan).
``builtin_certificates`` assembles every catalog entry applicable to a factor
pair; a user certificate is built for one pair and reaches the brackets only
through their ``certificates=`` argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .bases import TIE_RTOL, BaseNorm, DualMax
from .hilbert import PairingMap, coeffs_of, frobenius_norm
from .quantizations import MAX_DEPTH, Quantization, _depth, amp_norm, underlying_norm
from .sampling import make_rng, random_complex

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


def pair_element(E: Quantization, F: Quantization, u) -> tuple:
    """(U, ||U||_F) of an element over the factor pair (E, F): U is u's
    coefficient matrix, with E.dim * F.dim columns and finite entries."""
    U = coeffs_of(u)
    if U.shape[1] != E.dim * F.dim:
        raise ValueError(f"element has base dimension {U.shape[1]}, factors give {E.dim}*{F.dim}")
    return U, frobenius_norm(U)


# -- underlying dual machinery ------------------------------------------------


def underlying_dual_norm(q: Quantization, c) -> Optional[float]:
    """Exact dual norm of a functional on the underlying space, when closed form."""
    c = np.asarray(c, dtype=complex).ravel()
    base = q.underlying_base
    if base is not None:
        return base.dual_norm(c)
    if q.kind == "lp":
        pointwise = [underlying_dual_norm(q.inner, ct) for ct in c.reshape(q.points, q.inner.dim)]
        return None if None in pointwise else q.point_base.dual_norm(np.asarray(pointwise))
    return None


def underlying_dual_maximize(q: Quantization, A: np.ndarray, rng, starts: int = 6, nested: int = 0) -> DualMax:
    """sup of ||A f||_2 over the dual unit ball of q's underlying norm.

    A is one d x m matrix or an N x d x m stack searched in one step, the
    nested searches of lp inners, concrete and tensor_p on the whole stack.
    nested counts the concrete and tensor_p searches this one runs inside:
    the outermost runs an _alternate, every deeper one a single greedy pass,
    so the cost grows linearly with the depth of a descriptor.
    The witness is always feasible, so the lower field is certified for any
    kind; exactness holds only where the base machinery is exact.
    """
    A = np.asarray(A, dtype=complex)
    base = q.underlying_base
    if base is not None:
        return base.dual_ball_maximize(A, rng=rng, starts=starts)
    S = A if A.ndim == 3 else A[None]
    if q.kind == "lp":
        # per-point inner witnesses, outer weights through the scalar dual ball
        blocks = np.split(S, q.points, axis=-1)
        phis = [underlying_dual_maximize(q.inner, B, rng, 2, nested).witness for B in blocks]
        M = np.stack([[b @ phi for b, phi in zip(B, P)] for B, P in zip(blocks, phis)], axis=-1)
        outer = q.point_base.dual_ball_maximize(M, rng=rng, starts=starts)
        f = np.concatenate([outer.witness[:, t, None] * P for t, P in enumerate(phis)], axis=-1)
    elif q.kind == "concrete":
        # the functionals w . T_m v over unit v and w span the dual ball
        G = np.stack(q.generators)
        _, w, v = _alternate(Quantization.hilbert(G.shape[1]), Quantization.hilbert(G.shape[2]),
                             np.einsum("nim,mlk->nilk", S, G), starts, rng, nested + 1)
        f = np.stack([np.einsum("l,mlk,k->m", wn, G, vn) for wn, vn in zip(w, v)])
    else:
        # tensor_p: elementary functionals phi (x) psi
        _, phi, psi = _alternate(Quantization.min(q.base), q.inner,
                                 S.reshape(*S.shape[:2], q.base.dim, q.inner.dim), starts, rng, nested + 1)
        f = (phi[:, :, None] * psi[:, None, :]).reshape(len(S), -1)
    lower = np.array([float(np.linalg.norm(a @ x)) for a, x in zip(S, f)])
    if A.ndim == 3:
        return DualMax(lower, np.full(len(S), np.inf), f, False)
    return DualMax(float(lower[0]), np.inf, f[0], False)


def _alternate(E: Quantization, F: Quantization, T: np.ndarray, starts: int, rng, nested: int = 0) -> tuple:
    """(value, f, g): the best ||sum_jk T[:, j, k] f_j g_k||_2 found over f and
    g in the dual unit balls of E's and F's underlying norms.

    T is one d x mE x mF array or an N x d x mE x mF stack, giving stacked
    results.  Start 0 takes g from T as a (d mE) x mF matrix, each later
    start from a random max(2, d) x mF one, drawn in stack and start order;
    all starts then run six rounds in lockstep, each an f step then a g
    step, one stacked underlying_dual_maximize each, and _keep_best picks
    a start per stack entry, so ties keep the earlier.  The steps run
    at the given nesting level (see underlying_dual_maximize); beyond the
    first (nested > 1) the search is one greedy pass instead, a g step on
    the slices summed over j, then an f step, drawing nothing itself.
    """
    S = T if T.ndim == 4 else T[None]
    N, d, mE, mF = S.shape
    step = lambda q, A, k: underlying_dual_maximize(q, A, rng, k, nested).witness
    if nested > 1:
        g = step(F, S.sum(axis=2), 2)
        f = step(E, np.einsum("nijk,nk->nij", S, g), 2)
        best = np.linalg.norm(np.einsum("nijk,nj,nk->ni", S, f, g), axis=-1)
        return (best, f, g) if T.ndim == 4 else (float(best[0]), f[0], g[0])
    rand = [random_complex(rng, max(2, d), mF) for _ in range(N * (starts - 1))]
    G = step(F, S.reshape(N, d * mE, mF), 2)[:, None]
    if rand:
        G = np.concatenate([G, step(F, np.stack(rand), 1).reshape(N, starts - 1, mF)], axis=1)
    for _ in range(6):
        Fs = step(E, np.einsum("nijk,nsk->nsij", S, G).reshape(-1, d, mE), 2).reshape(N, starts, mE)
        G = step(F, np.einsum("nijk,nsj->nsik", S, Fs).reshape(-1, d, mF), 2).reshape(N, starts, mF)
    val = lambda n, s: np.linalg.norm(np.einsum("ijk,j,k->i", S[n], Fs[n, s], G[n, s]))
    best, pick = zip(*(_keep_best((val(n, s), s) for s in range(starts)) for n in range(N)))
    f, g = Fs[np.arange(N), pick], G[np.arange(N), pick]
    return (np.array(best), f, g) if T.ndim == 4 else (best[0], f[0], g[0])


def _norming_candidates(q: Quantization, c: np.ndarray, rng, n_random: int = 6):
    """Nonzero elements x aimed at |c . x|, yielded lazily and not valued.

    In order: the aligned element (conj(c) on hilbert, primal_align on a
    base, a per-point or alternating alignment on lp and tensor_p), n_random
    random elements, then conj(c) off hilbert.  Each is drawn only when asked
    for, so a caller that stops early skips the rest; one that needs them
    all, with their draws, takes list(...) and values what it reads.
    """
    c = np.asarray(c, dtype=complex).ravel()

    def elements():
        base = q.underlying_base
        if q.kind == "hilbert":
            yield np.conj(c)
        elif base is not None:
            yield base.primal_align(c)
        elif q.kind == "lp":
            blocks, scores, uppers = [], [], []
            for ct in c.reshape(q.points, q.inner.dim):
                key = lambda xy: abs(np.dot(ct, xy[0])) / max(xy[1], 1e-30)
                valued = [(y, underlying_norm(q.inner, y)) for y in _norming_candidates(q.inner, ct, rng, n_random=2)]
                y, up = max(valued, key=key)
                blocks.append(y)
                scores.append(key((y, up)))
                uppers.append(max(up, 1e-30))
            s = q.point_base.primal_align(np.asarray(scores, dtype=complex))
            yield np.concatenate([st / ut * y for st, ut, y in zip(s, uppers, blocks)])
        elif q.kind == "tensor_p":
            # list(...)[0] draws the unused inner random candidates too, so later draws stay in place
            C = c.reshape(q.base.dim, q.inner.dim)
            b = list(_norming_candidates(q.inner, C.mean(axis=0), rng, n_random=2))[0]
            for _ in range(4):
                a = q.base.primal_align(C @ b)
                b = list(_norming_candidates(q.inner, a @ C, rng, n_random=1))[0]
            yield np.multiply.outer(a, b)
        for _ in range(n_random):
            yield random_complex(rng, q.dim)
        if q.kind != "hilbert":
            yield np.conj(c)

    for x in elements():
        x = np.asarray(x, dtype=complex).ravel()
        if np.any(x):
            yield x


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
    singular value of the coefficient matrix).  The search values a
    functional's norming candidates first, in order, one underlying_norm
    each, and hill-climbs it over one-row elements only, since by module
    contractivity its lb-norm, the underlying dual norm (computed once), is
    attained at d = 1.  When that has a closed form, the search stops at the
    first candidate that meets it to TIE_RTOL, with exact=True, method
    "functional/norming-candidate" and a witness of the element and the dual
    norm; concrete, tensor_p and lp-over-concrete sources (no closed form)
    and a multi-coordinate min over lq, 2 < p < inf (candidates valued by a
    loose one-row upper) value every candidate and climb.  A linear map into
    a larger target climbs over one to three rows, a bilinear map over one
    and two.  Every search keeps its best in one scan, _keep_best: the first
    candidate or climb it values, then a later one only when it _beats the
    best, as a Python float, so a zero map's witness names source elements
    too and its lower is the float 0.0.  Coefficients of
    Frobenius norm outside [2**-64, 2**64] are first scaled by a power of two
    to norm in [1/2, 1), the bound scaled back, so no search overflows or
    underflows.  Raises ValueError on a real-restricted source or target:
    the searches sample complex elements.
    """
    bilinear = isinstance(phi, BilinearMap)
    spaces = (phi.source_left, phi.source_right, phi.target) if bilinear else (phi.source, phi.target)
    if any(q.real for q in spaces):
        raise ValueError("lb_norm_lower does not take real-restricted sources or targets")
    key = "tensor" if bilinear else "matrix"
    coeffs = getattr(phi, key)
    n = frobenius_norm(coeffs)
    if n and not 2.0**-64 <= n <= 2.0**64:
        e = math.frexp(n)[1]
        est = lb_norm_lower(replace(phi, **{key: _ldexp(coeffs, -e)}), budget, seed, use_closed_forms)
        # f g^T is the tensor; a dual norm scales with the map, source elements do not
        witness = {k: _ldexp(v, e) if k == "f" else math.ldexp(v, e) if k == "dual_norm" else v
                   for k, v in est.witness.items()}
        return replace(est, lower=math.ldexp(est.lower, e), witness=witness)
    rng = make_rng(seed, "lbnorm")
    starts = max(2, budget // 50)
    if bilinear:
        return _lb_lower_bilinear(phi, starts, rng, use_closed_forms)
    dn = underlying_dual_norm(phi.source, phi.matrix[:, 0]) if phi.is_functional else None
    if use_closed_forms and dn is not None:
        return LbNormEstimate(dn, True, "functional/dual-norm")
    if use_closed_forms and phi.source.kind == "hilbert" and phi.target.kind == "hilbert":
        return LbNormEstimate(float(np.linalg.norm(phi.matrix, 2)), True, "hilbert/operator-norm")
    return _lb_lower_linear_search(phi, starts, rng, dn)


def _ldexp(a: np.ndarray, e: int) -> np.ndarray:
    """The complex array a times 2**e, exact wherever the result is normal."""
    return np.ldexp(a.real, e) + 1j * np.ldexp(a.imag, e)


def _ratio(sources, target, image, rng):
    """ratio(xs, known) for _ascend: target lower bound of image(xs) over the product
    of the sources' amp_norm values (budget 40, unless known holds them)."""

    def ratio(xs, known):
        dens = [amp_norm(q, x, budget=40, rng=rng).value if k is None else k
                for q, x, k in zip(sources, xs, known)]
        return amp_norm(target, image(xs), budget=40, rng=rng).lower / math.prod(dens), dens

    return ratio


def _beats(val: float, best: float) -> bool:
    """val > best by more than TIE_RTOL relative, so of candidates tied up to rounding the earlier stays."""
    return val > best * (1.0 + TIE_RTOL)


def _keep_best(scored, best: float = -math.inf, best_xs=None, enough: float = math.inf) -> tuple:
    """(best, best_xs) over the (value, xs) pairs of scored after any best passed in: the first
    is kept, then a later one only when it _beats the best, stored as a Python float.  Once the
    best reaches enough, scored is asked for no further pair, so a lazy one draws no more."""
    for val, xs in scored:
        if best_xs is None or _beats(val, best):
            best, best_xs = float(val), xs
        if best >= enough:
            break
    return best, best_xs


def _climb(ratio, sources, rows: int, starts: int, rng):
    """Yield the (ratio, xs) of an _ascend from each start s, which draws a (1 + s % rows) x dim element
    per source in order; rows = 1 for a functional, its lb-norm attained at d = 1 (module contractivity)."""
    for s in range(starts):
        yield _ascend(ratio, [random_complex(rng, 1 + s % rows, q.dim) for q in sources], rng)


def _ascend(ratio, xs: list, rng) -> tuple:
    """(ratio, xs) after 50 hill-climbing steps on ratio(xs, known): each adds
    0.3 times a complex Gaussian to one of xs, the first when there is one or
    when rng.random() < 0.5, and keeps the move when its ratio _beats.  ratio
    returns the ratio and the source values of xs; a step passes on the kept
    values with None for the element it moves, which alone is valued again."""
    val, dens = ratio(xs, [None] * len(xs))
    for _ in range(50):
        k = 0 if len(xs) == 1 or rng.random() < 0.5 else 1
        cand, known = list(xs), list(dens)
        cand[k], known[k] = xs[k] + 0.3 * random_complex(rng, *xs[k].shape), None
        v2, d2 = ratio(cand, known)
        if _beats(v2, val):
            xs, dens, val = cand, d2, v2
    return val, xs


def _lb_lower_linear_search(phi: LinearMap, starts: int, rng, dn: Optional[float]) -> LbNormEstimate:
    best, best_xs = -math.inf, None
    if phi.is_functional:
        c = phi.matrix[:, 0]
        # every later candidate and climb value is a certified lower, so at
        # most the dual norm up to rounding: none could _beat one that meets it
        enough = math.inf if dn is None else dn * (1.0 - TIE_RTOL)
        scored = ((abs(np.dot(c, x)) / underlying_norm(phi.source, x), [x[None, :]])
                  for x in _norming_candidates(phi.source, c, rng))
        best, best_xs = _keep_best(scored, enough=enough)
        if best >= enough:
            witness = {"element": best_xs[0], "dual_norm": dn}
            return LbNormEstimate(best, True, "functional/norming-candidate", witness)
    ratio = _ratio([phi.source], phi.target, lambda xs: xs[0] @ phi.matrix, rng)
    rows = 1 if phi.is_functional else 3
    best, best_xs = _keep_best(_climb(ratio, [phi.source], rows, starts, rng), best, best_xs)
    return LbNormEstimate(best, False, "search/sampled-ascent", {"element": best_xs[0]})


def _lb_lower_bilinear(r: BilinearMap, starts: int, rng, use_closed_forms: bool = True) -> LbNormEstimate:
    E, F = r.source_left, r.source_right
    ratio = _ratio([E, F], r.target, lambda xs: amplify_bilinear(r, *xs), rng)
    valued = lambda pairs: ((ratio(pair, [None, None])[0], pair) for pair in pairs)
    best, best_xs = -math.inf, None
    T = r.tensor
    if r.target.dim == 1:
        # scalar-valued: d=1 ratios are exact quotients |x C y| / (||x|| ||y||)
        C = T[:, :, 0]
        uu, ss, vv = np.linalg.svd(C)
        if use_closed_forms and ss.size and (ss.size == 1 or ss[1] <= 1e-12 * ss[0]):
            # rank-one C = f g^T; recover the factors from the SVD
            f, g = uu[:, 0] * ss[0], vv[0]
            dn_f, dn_g = underlying_dual_norm(E, f), underlying_dual_norm(F, g)
            if dn_f is not None and dn_g is not None:
                return LbNormEstimate(dn_f * dn_g, True, "functional-product/dual-norms", {"f": f, "g": g})
        cand_L = list(_norming_candidates(E, C @ np.ones(C.shape[1]), rng, n_random=3))
        cand_L += _norming_candidates(E, uu[:, 0], rng, n_random=0)
        cand_R = [(y, underlying_norm(F, y)) for y in _norming_candidates(F, vv[0], rng, n_random=3)]
        # for each x, the best y by aligning against x C, then cand_R
        scored = ((abs(x @ C @ y) / (ux * uy), [x[None, :], y[None, :]])
                  for x, ux in [(x, underlying_norm(E, x)) for x in cand_L]
                  for y, uy in [(y, underlying_norm(F, y)) for y in _norming_candidates(F, x @ C, rng, n_random=1)]
                  + cand_R)
        best, best_xs = _keep_best(scored)

    # elementary candidates from per-factor norming data
    elementary = ([x[None, :], y[None, :]]
                  for x in list(_norming_candidates(E, T.sum(axis=(1, 2)).conj(), rng, n_random=2))
                  for y in list(_norming_candidates(F, T.sum(axis=(0, 2)).conj(), rng, n_random=2)))
    best, best_xs = _keep_best(valued(elementary), best, best_xs)

    if all(q.kind == "hilbert" for q in (E, F, r.target)):
        _, f, g = _alternate(E, F, T.transpose(2, 0, 1), starts, rng)
        scored = valued([[f[None, :], g[None, :]]])
    else:
        scored = _climb(ratio, [E, F], 2, starts, rng)
    best, best_xs = _keep_best(scored, best, best_xs)
    return LbNormEstimate(best, False, "search/alternating", {"u": best_xs[0], "v": best_xs[1]})


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
        U, _ = pair_element(*self.sources, U)
        if self.bilinear is not None:
            W = U @ self.bilinear.linearized_matrix
            nv = amp_norm(self.target, W, budget=budget, rng=rng)
            return nv.lower / self.bound, {"certificate": self.name, "target_method": nv.method}
        T = U.reshape(U.shape[0], self.left.dim, self.right.dim)
        val, f, g = _alternate(self.left, self.right, T, max(2, budget // 60), rng)
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


def _identity_reindex_tensor(mE: int, mF: int) -> np.ndarray:
    return np.eye(mE * mF, dtype=complex).reshape(mE, mF, mE * mF)


def builtin_certificates(E: Quantization, F: Quantization) -> list:
    """Catalog certificates applicable to the pair (E, F), and nothing else.

    Every entry carries a certified lb-bound of 1; lower bounds obtained
    through them are sound for the pl norm, and count for the l norm only
    when the target is proved semi-Ruan from its descriptor.  After the
    adaptive functional pair, each entry is a fixed bilinear map E x F ->
    target, built by ``add`` from its name, its provenance, its coefficient
    tensor, its target and the map's own provenance.  A factor P with a
    projective_base absorbs the other, Q, by the identity reindex into
    tensor_p(P.base, Q) or lp(1, P.weights, inner=Q); a right P's entries
    (-right, last) read (e, f) as (f, e), sound by commutativity, and a
    target past MAX_DEPTH is left out.  User certificates built for (E, F)
    go to a bracket's certificates= argument, with this list or without it.
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

    def add(name, provenance, tensor, target, map_provenance):
        bilinear = BilinearMap(tensor, E, F, target, map_provenance)
        certs.append(Certificate(name, provenance, target, bilinear))

    if E.kind == "hilbert" and F.kind == "hilbert" and E.dim == F.dim:
        n = E.dim
        diag = np.zeros((n, n, n), dtype=complex)
        diag[(np.arange(n),) * 3] = 1.0
        add("coordinate-multiplication-l1",
            "coordinatewise multiplication of Frobenius-quantized l2 factors into weighted-l1",
            diag, Quantization.lp(1.0, np.ones(n)), "coordinatewise multiplication into l1")
        add("coordinate-multiplication-l2",
            "coordinatewise multiplication of Frobenius-quantized l2 factors into l2",
            diag, Quantization.hilbert(n), "coordinatewise multiplication into l2")
    hilbert_like = lambda q: q.kind == "hilbert" or (q.kind == "min" and q.base.kind == "euclidean")
    if hilbert_like(E) and hilbert_like(F):
        add("hilbert-tensor-embedding",
            "canonical bilinear map into the injectively quantized Hilbert tensor product",
            _identity_reindex_tensor(E.dim, F.dim), Quantization.min(BaseNorm.euclidean(E.dim * F.dim)),
            "canonical map into the Hilbert tensor product")
    for side, (P, Q) in enumerate(((E, F), (F, E))):
        if P.projective_base is None or _depth(Q) >= MAX_DEPTH:  # the target chains 1 + _depth(Q)
            continue
        suffix, note = ("", "") if side == 0 else ("-right", "; right factor, base index (e, f) read as (f, e)")
        tensor = _identity_reindex_tensor(P.dim, Q.dim)
        tensor = tensor.transpose(1, 0, 2) if side else tensor
        if P.kind == "max":
            add("max-tensor-identity" + suffix,
                "identity of a projectively quantized base into the base-projective tensor quantization" + note,
                tensor, Quantization.tensor_p(P.base, Q),
                "canonical map of a projective factor into the tensor quantization")
        else:
            add("l1-reshape" + suffix,
                "weighted-l1 factor absorbed into vector-valued weighted-l1 over the same atoms" + note,
                tensor, Quantization.lp(1.0, P.weights, inner=Q),
                f"reshape of an l1 factor against the {('second', 'first')[side]} factor")
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
