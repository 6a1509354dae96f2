"""Maps between quantized spaces: amplification, lb-norm bounds, certificates."""

import warnings

import numpy as np
import pytest

from pllab import (
    BaseNorm,
    BilinearMap,
    Certificate,
    LinearMap,
    Quantization,
    amp_norm,
    amplify_bilinear,
    amplify_linear,
    builtin_certificates,
    compare_pl_l,
    diamond_amp,
    l_norm_bracket,
    lb_norm_lower,
    pl_norm_bracket,
)
from pllab.maps import _alternate, embedding_map, underlying_dual_maximize, underlying_dual_norm
from pllab.quantizations import MAX_DEPTH
from pllab.sampling import make_rng, random_complex
from pllab.suites import quantization_pool
from test_tensorlab import _IDENTIFICATIONS


def scalar():
    return Quantization.scalar()


def test_amplify_linear_is_module_equivariant():
    """phi_inf commutes with the H-slot module action to machine precision."""
    rng = make_rng(41, "equiv")
    phi = LinearMap(
        random_complex(rng, 3, 2),
        Quantization.hilbert(3),
        Quantization.hilbert(2),
    )
    U = random_complex(rng, 2, 3)
    a = random_complex(rng, 4, 2)
    lhs = amplify_linear(phi, a @ U)
    rhs = a @ amplify_linear(phi, U)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_functional_lb_norm_is_dual_norm():
    # frozen: (1, -2) against unweighted l1 has dual norm 2
    q = Quantization.min(BaseNorm.lp(1.0, weights=[1.0, 1.0]))
    phi = LinearMap(np.array([[1.0], [-2.0]]), q, scalar())
    est = lb_norm_lower(phi)
    assert est.exact
    assert est.lower == 2.0
    assert est.method == "functional/dual-norm"


def test_functional_search_route_close_and_never_above():
    """The sampled route approaches the dual norm from below."""
    rng = make_rng(42, "fsearch")
    bases = [
        BaseNorm.lp(1.0, weights=[1.0, 2.0, 0.5]),
        BaseNorm.lp(np.inf, weights=[1.0, 1.0, 1.0]),
        BaseNorm.euclidean(4),
    ]
    for k in range(12):
        base = bases[k % 3]
        c = random_complex(rng, base.dim)
        q = Quantization.min(base)
        phi = LinearMap(c[:, None], q, scalar())
        want = underlying_dual_norm(q, c)
        est = lb_norm_lower(phi, budget=1000, seed=k, use_closed_forms=False)
        assert est.lower <= want + 1e-9
        assert est.lower >= 0.99 * want


def test_hilbert_to_hilbert_lb_norm_is_sigma_max():
    rng = make_rng(43, "hh")
    M = random_complex(rng, 3, 2)
    phi = LinearMap(M, Quantization.hilbert(3), Quantization.hilbert(2))
    est = lb_norm_lower(phi)
    assert est.exact
    assert est.lower == pytest.approx(np.linalg.norm(M, 2), rel=1e-12)


def test_lb_lower_linear_never_exceeds_on_contractions():
    # coordinate projections are contractive between these descriptors
    q3 = Quantization.min(BaseNorm.euclidean(3))
    q2 = Quantization.min(BaseNorm.euclidean(2))
    P = np.zeros((3, 2))
    P[0, 0] = P[1, 1] = 1.0
    phi = LinearMap(P, q3, q2)
    est = lb_norm_lower(phi, budget=300, seed=1)
    assert est.lower <= 1.0 + 1e-9


def test_amplified_ratio_dominates_underlying_ratio():
    """Amplifications only grow the ratio sup: d=1 never beats the estimate."""
    rng = make_rng(44, "ratio")
    q = Quantization.min(BaseNorm.lp(np.inf, weights=[1.0, 2.0]))
    M = random_complex(rng, 2, 2)
    phi = LinearMap(M, q, Quantization.hilbert(2))
    est = lb_norm_lower(phi, budget=400, seed=3)
    for _ in range(40):
        x = random_complex(rng, 2)[None, :]
        den = amp_norm(q, x).value
        if den < 1e-12:
            continue
        ratio = amp_norm(phi.target, x @ M).lower / den
        assert ratio <= est.lower * (1 + 1e-6) + 1e-12


def test_bilinear_rank_one_functional_product():
    """A rank-one scalar-valued bilinear map factors into two functionals."""
    E = Quantization.min(BaseNorm.lp(1.0, weights=[1.0, 1.0]))
    F = Quantization.min(BaseNorm.euclidean(2))
    f = np.array([1.0, -2.0])
    g = np.array([3.0j, 4.0])
    r = BilinearMap(np.einsum("e,f->ef", f, g)[:, :, None], E, F, scalar())
    est = lb_norm_lower(r)
    assert est.exact
    want = underlying_dual_norm(E, f) * underlying_dual_norm(F, g)
    assert est.lower == pytest.approx(want, rel=1e-12)


def test_amplify_bilinear_matches_linearized_diamond():
    """Amplifying r on (u, v) equals pushing u <> v through the linearization."""
    rng = make_rng(45, "lin")
    E = Quantization.hilbert(2)
    F = Quantization.hilbert(3)
    G = Quantization.hilbert(4)
    r = BilinearMap(random_complex(rng, 2, 3, 4), E, F, G)
    u = random_complex(rng, 2, 2)
    v = random_complex(rng, 3, 3)
    direct = amplify_bilinear(r, u, v)
    via_diamond = diamond_amp(u, v) @ r.linearized_matrix
    np.testing.assert_allclose(direct, via_diamond, atol=1e-12)


def test_underlying_dual_norm_closed_forms():
    w = np.array([1.0, 2.0])
    c = np.array([2.0, 2.0])
    assert underlying_dual_norm(Quantization.min(BaseNorm.lp(1.0, weights=w)), c) == 2.0
    assert underlying_dual_norm(Quantization.max(BaseNorm.lp(1.0, weights=w)), c) == 2.0
    assert underlying_dual_norm(Quantization.hilbert(2), c) == pytest.approx(np.sqrt(8))
    # lp kind: dual combines pointwise duals with the conjugate exponent
    q = Quantization.lp(1.0, [1.0, 1.0])
    assert underlying_dual_norm(q, c) == 2.0
    verts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert underlying_dual_norm(Quantization.min(BaseNorm.polytope(verts)), c) is None


def test_underlying_dual_maximize_feasible_witnesses():
    """Witness functionals stay in the dual ball and attain their value, for
    one matrix and for each matrix of a stack searched in one step; the lq
    ball and a tensor_p over an lq base are steps that draw."""
    rng = make_rng(46, "udm")
    descriptors = [
        Quantization.min(BaseNorm.lp(1.0, weights=[1.0, 2.0])),
        Quantization.hilbert(2),
        Quantization.lp(2.0, [1.0, 0.5]),
        Quantization.lp(1.0, [1.0, 1.0], inner=Quantization.hilbert(1)),
        Quantization.lp(1.5, [1.0, 0.5, 2.0]),
        Quantization.tensor_p(BaseNorm.lp(3.0, dim=2), Quantization.hilbert(2)),
    ]
    for q in descriptors:
        A = random_complex(rng, 3, q.dim)
        dm = underlying_dual_maximize(q, A, rng)
        stack = random_complex(rng, 2, 3, q.dim)
        dms = underlying_dual_maximize(q, stack, rng)
        assert dms.witness.shape == (2, q.dim) and dms.lower.shape == (2,)
        for a, f, lower, upper in [(A, dm.witness, dm.lower, dm.upper), *zip(stack, dms.witness, dms.lower, dms.upper)]:
            assert lower <= upper + 1e-9
            for _ in range(100):
                x = random_complex(rng, q.dim)
                nx = amp_norm(q, x[None, :], budget=40).value
                assert abs(np.dot(f, x)) <= nx * (1 + 1e-8) + 1e-12
            assert np.linalg.norm(a @ f) == pytest.approx(lower, rel=1e-8)


# the pool, an lq base, whose ascent draws its random starts, a real l1 base,
# which enumerates signs from two rows, and an l1 base of one coordinate
_STACK_KINDS = quantization_pool() + [
    Quantization.min(BaseNorm.lp(3.0, weights=[1.0, 0.5, 2.0])),
    Quantization.min(BaseNorm.lp(1.0, weights=[1.0, 2.0, 0.5], real=True)),
    Quantization.min(BaseNorm.lp(1.0, weights=[2.0])),
]


@pytest.mark.parametrize("k", range(len(_STACK_KINDS)))
def test_stacked_dual_step_is_the_one_matrix_step_per_matrix(k):
    """A stack searched in one step gives each matrix, bit for bit, the
    witness and lower bound of a one-matrix search, the one-matrix searches
    run in stack order on one generator: on every pool kind and an lq base
    the stack draws what they draw (the random starts of a concrete or
    tensor_p factor, of the lq ascent), in their order; at one row (the l1
    closed forms) and at two."""
    q = _STACK_KINDS[k]
    A2 = random_complex(make_rng(48, "stack", k), 3, 2, q.dim, real=q.real)
    for A in (A2, A2[:, :1]):
        stacked = underlying_dual_maximize(q, A, make_rng(0, "stack-search", k))
        rng = make_rng(0, "stack-search", k)
        for n in range(3):
            one = underlying_dual_maximize(q, A[n], rng)
            assert one.witness.tobytes() == stacked.witness[n].tobytes()
            assert one.lower == stacked.lower[n]


_PAULI = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]])]

# a concrete and a tensor_p factor, whose dual balls the alternating search
# spans from two smaller dual balls, and an lp over the scalar inner
_ALTERNATE_FACTORS = [
    Quantization.concrete(_PAULI),
    Quantization.tensor_p(BaseNorm.lp(1.0, weights=[1.0, 2.0]), Quantization.hilbert(2)),
    Quantization.lp(1.5, [1.0, 0.5, 2.0]),
]


def _assert_in_dual_ball(q, f, rng):
    for _ in range(200):
        x = random_complex(rng, q.dim)
        assert abs(np.dot(f, x)) <= amp_norm(q, x[None, :], budget=40).value * (1 + 1e-8) + 1e-12


@pytest.mark.parametrize("k", range(len(_ALTERNATE_FACTORS)))
def test_alternate_witnesses_lie_in_their_dual_balls(k):
    """The functional pair of the alternating search, one T or each of a
    stack, and the dual-ball witness it gives a concrete or tensor_p factor,
    are feasible and attain their values."""
    E, F = _ALTERNATE_FACTORS[k], _ALTERNATE_FACTORS[(k + 1) % len(_ALTERNATE_FACTORS)]
    rng = make_rng(47, "alternate", k)
    T = random_complex(rng, 3, E.dim * F.dim).reshape(3, E.dim, F.dim)
    value, f, g = _alternate(E, F, T, 3, rng)
    Ts = random_complex(rng, 2, 3, E.dim * F.dim).reshape(2, 3, E.dim, F.dim)
    values, fs, gs = _alternate(E, F, Ts, 3, rng)
    for T, value, f, g in [(T, value, f, g), *zip(Ts, values, fs, gs)]:
        assert value == pytest.approx(np.linalg.norm(np.einsum("ijk,j,k->i", T, f, g)), rel=1e-12)
        _assert_in_dual_ball(E, f, rng)
        _assert_in_dual_ball(F, g, rng)
    A = random_complex(rng, 3, E.dim)
    dm = underlying_dual_maximize(E, A, rng)
    assert dm.lower == pytest.approx(np.linalg.norm(A @ dm.witness), rel=1e-12)
    _assert_in_dual_ball(E, dm.witness, rng)


def test_alternate_with_more_starts_is_never_below_one_start():
    """Start 0 runs as it would alone, so three starts never give less than
    one, over the pairs of pool kinds whose steps draw nothing (min, max, lp,
    hilbert) and d = 1..3."""
    pool = [q for q in quantization_pool() if q.kind not in ("concrete", "tensor_p")]
    for a, E in enumerate(pool):
        for b, F in enumerate(pool):
            for d in (1, 2, 3):
                T = random_complex(make_rng(49, "starts", a, b, d), d, E.dim * F.dim).reshape(d, E.dim, F.dim)
                one = _alternate(E, F, T, 1, make_rng(0, "starts-search"))[0]
                assert _alternate(E, F, T, 3, make_rng(0, "starts-search"))[0] >= one


def test_concrete_dual_search_values_the_functional_it_returns():
    """Over the Pauli space {I, X, Y} the functionals f_m = w . T_m v (unit v,
    w) span the dual ball, and sum_m |f_m|^2 <= 2, so ||A f|| <= sqrt(2)
    ||A||_op.  A search that takes its w step on the conjugate image stops
    at 1.8916 on this A; the best of 2,000 random (v, w) reaches 4.76."""
    q = Quantization.concrete(_PAULI)
    A = random_complex(make_rng(115, "concrete-A"), 2, 3)
    dm = underlying_dual_maximize(q, A, make_rng(0, "concrete-search"))
    _assert_in_dual_ball(q, dm.witness, make_rng(1, "concrete-ball"))
    rng = np.random.default_rng(2)
    v, w = (rng.standard_normal((2, 2000)) + 1j * rng.standard_normal((2, 2000)) for _ in range(2))
    v, w = v / np.linalg.norm(v, axis=0), w / np.linalg.norm(w, axis=0)
    sampled = np.linalg.norm(A @ np.einsum("ln,mlk,kn->mn", w, np.stack(_PAULI), v), axis=0).max()
    assert dm.lower >= 1.05 * 1.8915832899788696
    assert dm.lower >= sampled
    assert dm.lower <= np.sqrt(2) * np.linalg.norm(A, 2) * (1 + 1e-12)


def test_builtin_certificate_catalog_composition():
    E = Quantization.hilbert(2)
    F = Quantization.hilbert(2)
    names = {c.name for c in builtin_certificates(E, F)}
    assert "functional-pair" in names
    assert "coordinate-multiplication-l1" in names
    assert "coordinate-multiplication-l2" in names
    assert "hilbert-tensor-embedding" in names

    # a max or l1 factor has no catalog entry: the pl bracket's projective
    # family reports its identification rows, on either side
    for P, name in ((Quantization.max(BaseNorm.lp(1.0, weights=[1.0, 1.0])), "max-tensor-identity"),
                    (Quantization.lp(1.0, [1.0, 2.0]), "l1-reshape")):
        assert {c.name for c in builtin_certificates(P, F)} == {"functional-pair"}
        assert {c.name for c in builtin_certificates(F, P)} == {"functional-pair"}
        U = random_complex(make_rng(0, "catalog", name), 2, P.dim * F.dim)
        assert name in pl_norm_bracket(P, F, U, budget=60).details["certificates"]
        assert name + "-right" in pl_norm_bracket(F, P, U, budget=60).details["certificates"]


def test_certificates_are_contractive_on_diamonds():
    rng = make_rng(47, "certs")
    E = Quantization.hilbert(2)
    F = Quantization.hilbert(2)
    for t in range(25):
        u = random_complex(rng, 2, 2)
        v = random_complex(rng, 2, 2)
        prod = amp_norm(E, u).value * amp_norm(F, v).value
        W = diamond_amp(u, v)
        for cert in builtin_certificates(E, F):
            val, info = cert.evaluate_lower(W, budget=60, seed=t)
            assert val <= prod + 1e-9
            assert info["certificate"] == cert.name


def test_identification_rows_are_contractive_on_either_side_over_the_pool():
    """A max or l1 factor is identified on either side: over every ordered
    pool pair with a projective factor, each identification row of the pl
    bracket of u <> v is at most ||u|| ||v||.  certificate_sweep has no max
    factor on the right.  The last factor is l1 over a dim-1 inner of norm
    0.5, not the scalar: it gives no row, on either side."""
    pool = quantization_pool() + [Quantization.lp(1.0, [1.0, 1.0], inner=Quantization.lp(1.0, [0.5]))]
    seen = set()
    for a, E in enumerate(pool):
        for b, F in enumerate(pool):
            names = {("max-tensor-identity" if P.kind == "max" else "l1-reshape") + suffix
                     for P, suffix in ((E, ""), (F, "-right")) if P.projective_base is not None}
            for d in (1, 2) if names or len(pool) - 1 in (a, b) else ():
                rng = make_rng(0, "absorb", a, b, d)
                u, v = random_complex(rng, d, E.dim), random_complex(rng, d, F.dim)
                prod = amp_norm(E, u).value * amp_norm(F, v).value
                rows = pl_norm_bracket(E, F, diamond_amp(u, v), budget=60, seed=d, certificates=[])
                assert set(rows.details["certificates"]) == names, (a, b)
                for name in names:
                    assert rows.details["certificates"][name] <= prod * (1 + 1e-12), (name, a, b, d)
                seen |= names
    assert seen == set(_IDENTIFICATIONS)


def test_identification_rows_beside_a_max_depth_chain():
    """A max or l1 factor beside a chain 31 and 32 descriptors deep gets its
    rows on either side and brackets with no traceback: the projective family
    builds no target, which would chain one descriptor more than the chain."""
    Q = Quantization.hilbert(1)
    for _ in range(MAX_DEPTH - 2):
        Q = Quantization.lp(2.0, [1.0], inner=Q)
    deeper = Quantization.lp(2.0, [1.0], inner=Q)
    for P, name in ((Quantization.max(BaseNorm.lp(1.0, weights=[1.0, 1.0])), "max-tensor-identity"),
                    (Quantization.lp(1.0, [1.0, 1.0]), "l1-reshape")):
        U = random_complex(make_rng(0, "deep", name), 2, P.dim)
        for chain in (Q, deeper):
            for E, F, row in ((P, chain, name), (chain, P, name + "-right")):
                pl = compare_pl_l(E, F, U, budget=60)["pl"]
                assert row in pl["details"]["certificates"]
                assert not pl["gap"]  # an l1 base over a Frobenius chain: the identification is exact


def test_embedding_map_achieves_equality():
    rng = make_rng(48, "embed")
    F = Quantization.hilbert(2)
    for p in (1.0, 2.0, np.inf):
        r = embedding_map(p, [1.0, 0.5, 2.0], F)
        W = random_complex(rng, 2, 3)
        V = random_complex(rng, 2, 2)
        lhs = amp_norm(r.target, amplify_bilinear(r, W, V)).value
        rhs = amp_norm(r.source_left, W).value * amp_norm(r.source_right, V).value
        assert lhs == pytest.approx(rhs, rel=1e-12)


def _frobenius_reindex(n: int) -> BilinearMap:
    """hilbert(n) x hilbert(n) -> hilbert(n^2), the identity reindex."""
    E = Quantization.hilbert(n)
    tensor = np.zeros((n, n, n * n), dtype=complex)
    for j in range(n):
        for k in range(n):
            tensor[j, k, n * j + k] = 1.0
    return BilinearMap(tensor, E, E, Quantization.hilbert(n * n))


def test_user_certificate_reaches_brackets_through_the_argument():
    E = F = Quantization.hilbert(2)
    r = _frobenius_reindex(2)
    cert = Certificate("frobenius-reindex", "user-supplied", r.target, r)
    certs = builtin_certificates(E, F) + [cert]
    U = random_complex(make_rng(49, "user-cert"), 2, 4)
    pl = pl_norm_bracket(E, F, U, seed=0, certificates=certs)
    l = l_norm_bracket(E, F, U, seed=0, certificates=certs)
    assert "frobenius-reindex" in pl.details["certificates"]
    assert "frobenius-reindex" in l.details["pool"]


@pytest.mark.parametrize(
    "E",
    [Quantization.lp(np.inf, [1.0, 1.0]), Quantization.lp(1.0, [0.1, 0.1])],
    ids=["linf", "l1"],
)
@pytest.mark.parametrize("fn", [pl_norm_bracket, l_norm_bracket], ids=["pl", "l"])
def test_certificates_of_another_pair_are_rejected(fn, E):
    """The hilbert(2) x hilbert(2) catalog is not sound over E x E of the same
    dimensions; a bracket handed it raises instead of reporting its value."""
    hilbert = Quantization.hilbert(2)
    r = _frobenius_reindex(2)
    U = random_complex(make_rng(50, "foreign-certs"), 2, 4)
    for certs in (builtin_certificates(hilbert, hilbert), [Certificate("reindex", "", r.target, r)]):
        with pytest.raises(ValueError, match="another factor pair"):
            fn(E, E, U, seed=0, certificates=certs)


@pytest.mark.parametrize("bound", [0.0, -1.0, np.nan, np.inf])
def test_certificate_bound_must_be_positive_and_finite(bound):
    r = _frobenius_reindex(2)
    with pytest.raises(ValueError, match="positive and finite"):
        Certificate("bad-bound", "", r.target, r, bound=bound)


def test_certificate_target_must_be_the_bilinear_target():
    r = _frobenius_reindex(2)
    with pytest.raises(ValueError, match="target"):
        Certificate("bad-target", "", Quantization.lp(1.0, np.ones(4)), r)
    with pytest.raises(ValueError, match="left and right"):
        Certificate("bad-pair", "", Quantization.scalar())


def test_linear_map_shape_validation():
    with pytest.raises(ValueError):
        LinearMap(np.ones((2, 2)), Quantization.hilbert(3), Quantization.hilbert(2))
    with pytest.raises(ValueError):
        BilinearMap(
            np.ones((2, 2, 2)),
            Quantization.hilbert(2),
            Quantization.hilbert(3),
            Quantization.hilbert(2),
        )


def test_lb_norm_lower_rejects_real_restricted_sources_and_targets():
    """The lb-norm searches sample complex elements, which a real-restricted
    space would refuse; the map is rejected up front instead."""
    real = Quantization.min(BaseNorm.lp(1.0, weights=[1.0, 1.0], real=True))
    H = Quantization.hilbert(2)
    maps = [
        LinearMap(np.array([[1.0], [-1.0]]), real, scalar()),
        LinearMap(np.eye(2), H, real),
        BilinearMap(np.ones((2, 2, 1)), real, H, scalar()),
        BilinearMap(np.ones((2, 2, 2)), H, H, real),
    ]
    for phi in maps:
        for closed in (True, False):
            with pytest.raises(ValueError, match="real-restricted"):
                lb_norm_lower(phi, budget=20, use_closed_forms=closed)


def _lp_dual_formula(p, w, c, inner_dim):
    """Dual norm of c over lp(p, w, inner=hilbert(inner_dim)), or the scalar
    inner when inner_dim is 1: the point duals ||c_t||_2, combined by the
    dual of (sum_t w_t n_t^p)^(1/p), and of max_t n_t at p = inf."""
    n = np.linalg.norm(np.asarray(c).reshape(len(w), inner_dim), axis=1)
    if p == 1.0:
        return float(np.max(n / w))
    if np.isinf(p):
        return float(np.sum(n))
    q = p / (p - 1.0)
    return float(np.sum(n**q * w ** (-q / p)) ** (1.0 / q))


@pytest.mark.parametrize("inner_dim", [1, 2], ids=["scalar", "nested"])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
def test_lp_functional_dual_norm_closed_form_matches_search_and_formula(p, inner_dim):
    w = np.array([0.5, 2.0, 3.0])
    inner = Quantization.hilbert(inner_dim) if inner_dim > 1 else None
    q = Quantization.lp(p, w, inner=inner)
    for k in range(3):
        c = random_complex(make_rng(50, "lp-dual", k), q.dim)
        phi = LinearMap(c[:, None], q, scalar())
        closed = lb_norm_lower(phi)
        assert closed.exact and closed.method == "functional/dual-norm"
        assert closed.lower == pytest.approx(_lp_dual_formula(p, w, c, inner_dim), rel=1e-12)
        search = lb_norm_lower(phi, budget=100, seed=k, use_closed_forms=False)
        assert search.lower <= closed.lower + 1e-9
        assert search.lower == pytest.approx(closed.lower, rel=1e-9)


def test_evaluate_lower_admits_its_element_as_the_brackets_do():
    """Every certificate, the functional pair too, rejects a non-finite entry
    and a column count other than dim(E) * dim(F) with the brackets' errors."""
    H2 = Quantization.hilbert(2)
    U = random_complex(make_rng(0, "admit-cert"), 2, 4)
    U[1, 2] = np.nan
    for cert in builtin_certificates(H2, H2):
        with pytest.raises(ValueError, match="^element has non-finite entries"):
            cert.evaluate_lower(U)
        with pytest.raises(ValueError, match=r"^element has base dimension 3, factors give 2\*2$"):
            cert.evaluate_lower(np.ones((2, 3)))
        with pytest.raises(ValueError, match=r"^element has base dimension 3, factors give 2\*2$"):
            pl_norm_bracket(H2, H2, np.ones((2, 3)))


def test_pl_bracket_over_unweighted_linf_points_is_sound():
    """lp(inf, w) is max_t ||U_t|| whatever the weights, so the functional-pair
    witness lies in the unweighted l1 dual ball."""
    E, F = Quantization.max(BaseNorm.euclidean(2)), Quantization.lp(np.inf, [1.0, 2.0])
    U = random_complex(make_rng(0, "probe", 8), 2, 4)
    pl = pl_norm_bracket(E, F, U)
    assert pl.lower <= pl.upper
    assert pl.lower_witness["certificate"] == "functional-pair"
    _, info = builtin_certificates(E, F)[0].evaluate_lower(U)
    assert np.sum(np.abs(info["functional_right"])) <= 1 + 1e-12
    l = l_norm_bracket(E, F, U)
    assert l.lower <= l.upper
    report = compare_pl_l(E, F, U)
    assert all(check["passed"] for check in report["checks"])


def test_tensor_p_functional_search_reaches_the_operator_norm():
    """Over tensor_p(euclidean, hilbert) the underlying norm is the nuclear
    norm of the coefficient matrix, so a functional's lb-norm is its operator
    norm; no closed form is wired, the norming search runs."""
    q = Quantization.tensor_p(BaseNorm.euclidean(2), Quantization.hilbert(3))
    rng = make_rng(51, "tensor-p-functional")
    for c in (random_complex(rng, 6), np.multiply.outer(random_complex(rng, 2), random_complex(rng, 3)).ravel()):
        want = np.linalg.norm(c.reshape(2, 3), 2)
        est = lb_norm_lower(LinearMap(c[:, None], q, scalar()), budget=100)
        assert est.method == "search/sampled-ascent"
        assert est.lower <= want + 1e-9
        assert est.lower >= want * (1 - 1e-4)


def test_scalar_bilinear_search_reaches_the_operator_norm():
    """hilbert x hilbert -> scalar, of rank two: ||u C v^T||_F <= ||u||_F ||C||_op
    ||v||_F, with equality at the top singular pair."""
    C = random_complex(make_rng(52, "scalar-bilinear"), 2, 3)
    r = BilinearMap(C[:, :, None], Quantization.hilbert(2), Quantization.hilbert(3), scalar())
    est = lb_norm_lower(r, budget=100)
    assert est.method == "search/alternating"
    assert est.lower == pytest.approx(np.linalg.norm(C, 2), rel=1e-12)
    assert est.lower <= np.linalg.norm(C, 2) + 1e-9


def test_coordinate_multiplication_l2_has_lb_norm_one():
    E = F = Quantization.hilbert(3)
    cert = next(c for c in builtin_certificates(E, F) if c.name == "coordinate-multiplication-l2")
    est = lb_norm_lower(cert.bilinear, budget=100)
    assert est.method == "search/alternating"
    assert est.lower <= 1.0 + 1e-9
    assert est.lower == pytest.approx(1.0, rel=1e-12)


def test_embedding_map_ascent_over_a_non_hilbert_source_is_seeded_and_sound(monkeypatch):
    """L_1 x min(euclidean 2) -> L_1(min(euclidean 2)) has lb-norm 1; its
    sources are not all Frobenius, so the search takes the sampled ascent
    (50 perturbation steps per start) rather than the alternating SVD."""
    from pllab import maps

    calls = []
    make_ratio = maps._ratio

    def counted(*args, **kwargs):
        ratio = make_ratio(*args, **kwargs)

        def counted_ratio(*xs_known):
            calls.append(1)
            return ratio(*xs_known)

        return counted_ratio

    def no_alternation(*args, **kwargs):
        raise AssertionError("alternating SVD steps on a non-hilbert source")

    monkeypatch.setattr(maps, "_ratio", counted)
    monkeypatch.setattr(maps, "_alternate", no_alternation)
    r = embedding_map(1.0, [0.7, 1.6], Quantization.min(BaseNorm.euclidean(2)))
    est = lb_norm_lower(r, budget=100, seed=4, use_closed_forms=False)
    assert est.method == "search/alternating"
    assert 0.0 < est.lower <= 1.0 + 1e-9
    starts = max(2, 100 // 50)
    assert len(calls) >= starts * 51
    again = lb_norm_lower(r, budget=100, seed=4, use_closed_forms=False)
    assert again.lower == est.lower


def test_bilinear_ascent_values_only_the_source_a_step_moves(monkeypatch):
    """Each hill-climbing step moves u or v and keeps the other's source value.
    Over sources that draw nothing the bound is the one found by valuing both
    at every step, with 100 fewer amp_norm calls (one per step of the 2 starts)."""
    from pllab import maps

    calls = []
    real = maps.amp_norm

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(maps, "amp_norm", counted)
    r = embedding_map(1.0, [0.7, 1.6], Quantization.min(BaseNorm.euclidean(2)))
    est = lb_norm_lower(r, budget=100, seed=4, use_closed_forms=False)
    assert est.lower == 0.9999999999999998
    assert len(calls) == 254  # 354 when both sources are valued at every step


def test_lb_search_witness_does_not_follow_the_scale_of_the_map():
    """Candidates and hill-climbing moves that tie up to rounding keep the
    earlier one: scaling the tensor of an isometric embedding by 3 or by
    1 + 2**-52 keeps the witness direction, and the lower bound stays within
    two units in the last place of the lb-norm 1."""
    rng = make_rng(3, "embedding-ties")
    unit = lambda x: x / np.linalg.norm(x)  # noqa: E731
    for p in (1.0, 2.0, 3.0, np.inf):
        for F in (Quantization.hilbert(2), Quantization.min(BaseNorm.euclidean(2)), Quantization.lp(1.0, [1.0, 2.0])):
            r = embedding_map(p, 0.5 + 1.5 * rng.random(2), F)
            ref = lb_norm_lower(r, use_closed_forms=False)
            assert ref.lower <= 1.0 + 2.0**-51
            for s in (3.0, 1.0 + 2.0**-52):
                est = lb_norm_lower(BilinearMap(s * r.tensor, r.source_left, r.source_right, r.target), use_closed_forms=False)
                assert est.lower / s <= 1.0 + 2.0**-51
                for k in ("u", "v"):
                    np.testing.assert_allclose(unit(est.witness[k]), unit(ref.witness[k]), rtol=0, atol=1e-12)


# the d = 2 element of concrete(Pauli) x min(l1) on the benchmark's identity grid
_FP_ELEMENT = np.array([
    [0.6722795046758313 + 0.9586506767754776j, -1.632599041358511 - 0.112642274303524j,
     -2.0394997136207684 - 0.6198022754971602j, 1.3941203748645472 + 1.6524039323406376j,
     0.4419752579524694 + 0.41427089245303084j, 2.7742137060836183 - 0.8694959167796257j,
     -1.232251226010157 + 1.6659603455924255j, -0.28153943805924986 - 1.2986602392285915j,
     -1.2456026046405435 - 0.1221952927277131j],
    [-1.044008991702713 - 0.0731797877440739j, 0.5200296320399765 - 0.3228428077669868j,
     -1.5190767068046254 - 3.2295885398024273j, 1.2340547384082337 - 0.38075378952660227j,
     0.5058930354173589 - 0.5812854416239203j, 0.9281662935943218 - 2.5253253000879248j,
     0.7414090613071059 + 0.858627676791579j, -1.3012195804557156 - 0.5126192710838655j,
     0.011048226675320726 - 1.1717745445150856j],
])


@pytest.mark.parametrize("bracket", [pl_norm_bracket, l_norm_bracket])
def test_functional_pair_lower_does_not_follow_the_scale_of_the_element(bracket):
    """Alternation starts that tie up to rounding keep the earlier one, so the
    functional-pair lower of s U is s times that of U to rounding, both for
    s one unit in the last place above 1 and for s = 1e12."""
    E, F = Quantization.concrete(_PAULI), Quantization.min(BaseNorm.lp(1.0, dim=3))
    ref = bracket(E, F, _FP_ELEMENT)
    assert ref.lower_witness["certificate"] == "functional-pair"
    for s in (1.0 + 2.0**-52, 1e12):
        b = bracket(E, F, s * _FP_ELEMENT)
        assert b.lower_witness["certificate"] == "functional-pair"
        assert b.lower == pytest.approx(s * ref.lower, rel=1e-14, abs=0)


@pytest.mark.parametrize("target", [scalar(), Quantization.hilbert(2)])
def test_lb_norm_lower_holds_at_every_scale(target):
    """The searches run on the map scaled by a power of two into a unit-size
    norm: from 1e-300 to 1e300 no error or warning, the bound over s within
    5e-16 relative of the s = 1 bound, and bit-equal to it at s = 2**700 and
    s = 2**-700."""
    E, F = Quantization.hilbert(2), Quantization.min(BaseNorm.lp(3.0, dim=2))
    T = random_complex(make_rng(1, "lb-scale"), 2, 2, target.dim)
    lower = lambda s: lb_norm_lower(BilinearMap(s * T, E, F, target), use_closed_forms=False).lower  # noqa: E731
    ref = lower(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(-300, 301, 50):
            assert lower(10.0**k) / 10.0**k == pytest.approx(ref, rel=5e-16, abs=0)
        assert lower(2.0**700) == ref * 2.0**700 and lower(2.0**-700) == ref * 2.0**-700


def _lb_pin_map(case: str):
    """The map of one pinned lb search, over spaces whose searches no
    benchmark round runs: two functionals and a rank-2 scalar bilinear map,
    whose norming candidates set the bound, then a linear map and a bilinear
    map into hilbert(2), whose hill climbs set it."""
    rng = make_rng(61, "lb-pin", case)
    lp2 = Quantization.lp(2.0, [1.0, 0.5], inner=Quantization.hilbert(2))
    tp = Quantization.tensor_p(BaseNorm.lp(1.0, dim=2), Quantization.hilbert(2))
    lp3 = Quantization.min(BaseNorm.lp(3.0, weights=[1.0, 2.0]))
    if case == "functional-lp2-hilbert":
        return LinearMap(random_complex(rng, 4)[:, None], lp2, scalar())
    if case == "functional-tensor_p-l1":
        return LinearMap(random_complex(rng, 4)[:, None], tp, scalar())
    if case == "linear-lp2-hilbert":
        return LinearMap(random_complex(rng, 4, 2), lp2, Quantization.hilbert(2))
    if case == "bilinear-rank2":
        C = random_complex(rng, 2, 2) @ random_complex(rng, 2, 4)
        return BilinearMap(C[:, :, None], lp3, lp2, scalar())
    return BilinearMap(random_complex(rng, 2, 4, 2), lp3, tp, Quantization.hilbert(2))


@pytest.mark.parametrize("case, lower", [
    ("functional-lp2-hilbert", 4.35513955182115),
    ("functional-tensor_p-l1", 2.20332928141145),
    ("bilinear-rank2", 6.087975557947918),
    ("linear-lp2-hilbert", 4.962340649060825),
    ("bilinear-hilbert-target", 2.348238302121473),
])
def test_lb_searches_without_closed_forms_are_pinned(case, lower):
    """Exact lower bounds with closed forms off: any change to the searches'
    draws, candidates or arithmetic moves them."""
    est = lb_norm_lower(_lb_pin_map(case), budget=100, seed=7, use_closed_forms=False)
    assert est.lower == lower


def _climb_sources() -> dict:
    """Sources whose functionals keep the climb: no closed-form dual norm
    (concrete, lp over concrete, tensor_p), or norming candidates valued by
    the loose one-row upper of a multi-coordinate min(l3)."""
    concrete = next(q for q in quantization_pool() if q.kind == "concrete")
    return {
        "min-l3": Quantization.min(BaseNorm.lp(3.0, weights=[1.0, 2.0, 0.5])),
        "concrete": concrete,
        "lp3-concrete": Quantization.lp(3.0, [1.0, 0.5], inner=concrete),
        "tensor_p": Quantization.tensor_p(BaseNorm.lp(1.0, weights=[1.0, 1.0]), Quantization.hilbert(2)),
    }


@pytest.mark.parametrize("name", list(_climb_sources()))
def test_functional_search_values_one_row_elements_only(monkeypatch, name):
    """A functional's lb-norm is attained at d = 1 (module contractivity), so
    where its search climbs it values one-row source elements only; a linear
    map into hilbert(2) still climbs over two- and three-row elements."""
    from pllab import maps

    rows = []
    real = maps.amp_norm

    def spy(q, U, *args, **kwargs):
        rows.append((q, np.shape(U)[0]))
        return real(q, U, *args, **kwargs)

    monkeypatch.setattr(maps, "amp_norm", spy)
    source = _climb_sources()[name]
    rng = make_rng(5, "one-row")
    for target in (scalar(), Quantization.hilbert(2)):
        rows.clear()
        phi = LinearMap(random_complex(rng, source.dim, target.dim), source, target)
        est = lb_norm_lower(phi, budget=150, seed=2, use_closed_forms=False)
        assert est.method == "search/sampled-ascent" and not est.exact
        valued = {d for q, d in rows if q is source}
        assert valued == ({1} if phi.is_functional else {1, 2, 3})


def _stop_sources() -> dict:
    """Sources whose norming candidates meet the closed-form dual norm."""
    w = [1.0, 0.5, 2.0]
    return {
        "min-euclidean": Quantization.min(BaseNorm.euclidean(3)),
        **{f"min-l{p:g}": Quantization.min(BaseNorm.lp(p, weights=w)) for p in (1.0, 2.0, np.inf)},
        "lp2-hilbert": Quantization.lp(2.0, [1.0, 0.5], inner=Quantization.hilbert(2)),
        "min-l3-one-coordinate": Quantization.min(BaseNorm.lp(3.0, weights=[2.0])),
    }


@pytest.mark.parametrize("name", list(_stop_sources()))
def test_functional_search_stops_at_a_norming_candidate_that_meets_the_dual_norm(name):
    """Closed forms off, a functional whose best norming candidate reaches
    its underlying dual norm up to TIE_RTOL is exact without a climb, and
    its witness keeps the one-row element and the dual norm, scaled back
    with the map."""
    q = _stop_sources()[name]
    for i in range(3):
        c = random_complex(make_rng(60, "stop", name, i), q.dim)
        dn = underlying_dual_norm(q, c)
        est = lb_norm_lower(LinearMap(c[:, None], q, scalar()), budget=100, seed=i, use_closed_forms=False)
        assert est.exact and est.method == "functional/norming-candidate"
        assert dn * (1 - 1e-14) <= est.lower <= dn * (1 + 1e-12)
        assert est.witness["dual_norm"] == dn and est.witness["element"].shape == (1, q.dim)
    big = lb_norm_lower(LinearMap(2.0**80 * c[:, None], q, scalar()), budget=100, use_closed_forms=False)
    assert big.method == "functional/norming-candidate"
    assert big.witness["dual_norm"] == pytest.approx(2.0**80 * dn, rel=1e-12)
    assert big.lower == pytest.approx(2.0**80 * dn, rel=1e-12)


def test_forcing_the_climb_leaves_every_stopped_lower_bit_for_bit(monkeypatch):
    """No climb value _beats a norming candidate that meets the dual norm,
    so with underlying_dual_norm patched to None, which forces the climb,
    40 seeded functionals keep their stopped lowers and elements exactly."""
    from pllab import maps

    sources = list(_stop_sources().values())
    phis = [LinearMap(random_complex(make_rng(61, "forced-climb", k), q.dim)[:, None], q, scalar())
             for k, q in ((k, sources[k % len(sources)]) for k in range(40))]
    stopped = [lb_norm_lower(phi, budget=100, seed=k, use_closed_forms=False) for k, phi in enumerate(phis)]
    assert {e.method for e in stopped} == {"functional/norming-candidate"}
    monkeypatch.setattr(maps, "underlying_dual_norm", lambda q, c: None)
    for k, (phi, stop) in enumerate(zip(phis, stopped)):
        climbed = lb_norm_lower(phi, budget=100, seed=k, use_closed_forms=False)
        assert climbed.method == "search/sampled-ascent"
        assert climbed.lower == stop.lower
        np.testing.assert_array_equal(climbed.witness["element"], stop.witness["element"])


def test_functional_search_values_only_the_candidates_it_needs(monkeypatch):
    """Norming candidates are valued in order and a search stops at the first
    that meets the dual norm: on every stopping source, and on weighted min
    bases like those of the lb-search benchmark, that is the first, aligned
    one; a concrete or tensor_p source, with no closed form, values all its
    candidates (six random ones, conj(c) and, on tensor_p, the aligned one)."""
    from pllab import maps

    valued = []
    real = maps.underlying_norm

    def spy(q, x):
        valued.append(q)
        return real(q, x)

    monkeypatch.setattr(maps, "underlying_norm", spy)
    rng = make_rng(62, "lazy-candidates")
    sources = list(_stop_sources().values())
    for p, dims in ((1.0, range(1, 6)), (np.inf, range(1, 6)), (None, range(1, 6)), (3.0, [1])):
        for m in dims:
            base = BaseNorm.euclidean(m) if p is None else BaseNorm.lp(p, weights=rng.uniform(0.5, 2.0, m))
            sources.append(Quantization.min(base))
    wants = [(q, "functional/norming-candidate", 1) for q in sources]
    wants += [(_climb_sources()[name], "search/sampled-ascent", n) for name, n in (("concrete", 7), ("tensor_p", 8))]
    for q, method, n in wants:
        for i in range(3):
            valued.clear()
            phi = LinearMap(random_complex(rng, q.dim)[:, None], q, scalar())
            est = lb_norm_lower(phi, budget=100, seed=i, use_closed_forms=False)
            assert est.method == method
            assert sum(v is q for v in valued) == n


def test_functional_search_lowers_never_exceed_the_dual_norm():
    """Over the lb spaces of tools/identity.py and the quantization pool, with
    closed forms off, a functional's lower bound is at most its underlying
    dual norm, wherever that has a closed form, up to rounding."""
    import importlib.util
    import sys
    from pathlib import Path
    from unittest import mock

    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("identity", root / "tools" / "identity.py")
    identity = importlib.util.module_from_spec(spec)
    with mock.patch.dict("os.environ"), mock.patch.object(sys, "path", [str(root / "bench"), *sys.path]):
        spec.loader.exec_module(identity)  # the tool pins the BLAS thread counts at import
        spaces = [*identity.lb_spaces().values(), *quantization_pool()]
    checked = 0
    for k, q in enumerate(spaces):
        for i in range(3):
            c = random_complex(make_rng(9, "functional-dual", k, i), q.dim)
            dn = underlying_dual_norm(q, c)
            if dn is None:
                continue
            est = lb_norm_lower(LinearMap(c[:, None], q, scalar()), budget=100, seed=i, use_closed_forms=False)
            assert 0.0 < est.lower <= dn * (1.0 + 1e-12)
            checked += 1
    assert checked == 3 * 14  # 14 of the 21 spaces have a closed-form dual norm


def test_lb_searches_value_a_candidate_only_where_they_read_it(monkeypatch):
    """Norming candidates come as elements; a search values one with
    underlying_norm only where it reads the value.  An embedding map's
    elementary candidates are valued by their ratio alone; a tensor_p
    functional values its 8 candidates and none of the hilbert candidates
    of their alignment; a rank-2 scalar bilinear map values each of its 7
    left candidates once, its 4 right ones once and the 2 right ones aligned
    with each left one."""
    from pllab import maps

    valued = []
    real = maps.underlying_norm

    def spy(q, x):
        valued.append((q.kind, x.tobytes()))
        return real(q, x)

    monkeypatch.setattr(maps, "underlying_norm", spy)
    H2 = Quantization.hilbert(2)
    tp = Quantization.tensor_p(BaseNorm.lp(1.0, weights=[1.0, 1.0]), H2)
    for F in (H2, Quantization.min(BaseNorm.lp(3.0, weights=[1.0, 2.0])), tp):
        for p in (1.0, np.inf):
            lb_norm_lower(embedding_map(p, [0.7, 1.6], F), budget=100, use_closed_forms=False)
    assert valued == []
    rng = make_rng(63, "valued-where-read")
    for i in range(3):
        valued.clear()
        lb_norm_lower(LinearMap(random_complex(rng, tp.dim)[:, None], tp, scalar()), budget=100, seed=i)
        assert [kind for kind, _ in valued] == ["tensor_p"] * 8
        valued.clear()
        C = random_complex(rng, tp.dim, 2) @ random_complex(rng, 2, H2.dim)
        lb_norm_lower(BilinearMap(C[:, :, None], tp, H2, scalar()), budget=100, seed=i)
        left = [x for kind, x in valued if kind == "tensor_p"]
        assert len(left) == len(set(left)) == 7
        assert sum(kind == "hilbert" for kind, _ in valued) == 4 + 2 * 7



def test_lb_norm_lower_is_a_float_on_every_path():
    """Every lb-norm search keeps its best through one scan that stores a
    Python float, and the closed forms and the rescaled bounds are floats
    too: on every path the lower is a float, not a numpy scalar."""
    H2 = Quantization.hilbert(2)
    min_l1 = Quantization.min(BaseNorm.lp(1.0, weights=[1.0, 0.5, 2.0]))
    climb = _climb_sources()
    rng = make_rng(64, "float-lower")
    functional = lambda q: LinearMap(random_complex(rng, q.dim)[:, None], q, scalar())  # noqa: E731
    C = random_complex(rng, min_l1.dim, 2) @ random_complex(rng, 2, H2.dim)
    stopped, rank2 = functional(min_l1), BilinearMap(C[:, :, None], min_l1, H2, scalar())
    cert = next(c for c in builtin_certificates(H2, H2) if c.name == "coordinate-multiplication-l2")
    cases = [
        (stopped, True, "functional/dual-norm"),
        (stopped, False, "functional/norming-candidate"),
        (functional(climb["concrete"]), False, "search/sampled-ascent"),
        (functional(climb["tensor_p"]), False, "search/sampled-ascent"),
        (rank2, True, "search/alternating"),
        (embedding_map(3.0, [0.7, 1.6], H2), False, "search/alternating"),
        (cert.bilinear, False, "search/alternating"),
        (LinearMap(np.zeros((min_l1.dim, 1)), min_l1, scalar()), False, "functional/norming-candidate"),
    ]
    for e in (100, -100):
        cases += [(LinearMap(2.0**e * stopped.matrix, min_l1, scalar()), False, "functional/norming-candidate"),
                  (BilinearMap(2.0**e * rank2.tensor, min_l1, H2, scalar()), False, "search/alternating")]
    for phi, closed, method in cases:
        est = lb_norm_lower(phi, budget=100, seed=1, use_closed_forms=closed)
        assert est.method == method
        assert type(est.lower) is float


def test_zero_maps_report_a_witness_element():
    """A search that finds no positive ratio keeps the first candidate or
    climb it values, so with closed forms off every zero map has lower 0 and
    a witness naming an element of each source's shape; a zero functional
    on a source with a closed-form dual norm stops at its first candidate."""
    H2 = Quantization.hilbert(2)
    tp = Quantization.tensor_p(BaseNorm.lp(1.0, weights=[1.0, 1.0]), H2)
    for q in (H2, Quantization.min(BaseNorm.lp(3.0, weights=[1.0, 2.0])), tp):
        embedding = embedding_map(1.0, [0.7, 1.6], q)
        zeros = [LinearMap(np.zeros((q.dim, 1)), q, scalar()), LinearMap(np.zeros((q.dim, 2)), q, H2),
                 BilinearMap(np.zeros((q.dim, q.dim, 1)), q, q, scalar()),
                 BilinearMap(np.zeros_like(embedding.tensor), embedding.source_left, q, embedding.target)]
        for phi in zeros:
            est = lb_norm_lower(phi, budget=100, use_closed_forms=False)
            assert est.lower == 0.0
            if isinstance(phi, LinearMap):
                assert est.witness["element"].shape == (1, q.dim)
            else:
                assert est.witness["u"].shape == (1, phi.source_left.dim)
                assert est.witness["v"].shape == (1, q.dim)
        functional = lb_norm_lower(zeros[0], budget=100, use_closed_forms=False)
        assert functional.exact == (q is not tp)
