"""Maps between quantized spaces: amplification, lb-norm bounds, certificates."""

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
from pllab.maps import embedding_map, underlying_dual_maximize, underlying_dual_norm
from pllab.sampling import make_rng, random_complex


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
    """Witness functionals stay in the dual ball and attain their value."""
    rng = make_rng(46, "udm")
    descriptors = [
        Quantization.min(BaseNorm.lp(1.0, weights=[1.0, 2.0])),
        Quantization.hilbert(2),
        Quantization.lp(2.0, [1.0, 0.5]),
        Quantization.lp(1.0, [1.0, 1.0], inner=Quantization.hilbert(1)),
    ]
    for q in descriptors:
        A = random_complex(rng, 3, q.dim)
        dm = underlying_dual_maximize(q, A, rng)
        assert dm.lower <= dm.upper + 1e-9
        f = dm.witness
        for _ in range(100):
            x = random_complex(rng, q.dim)
            nx = amp_norm(q, x[None, :], budget=40).value
            assert abs(np.dot(f, x)) <= nx * (1 + 1e-8) + 1e-12
        assert np.linalg.norm(A @ f) == pytest.approx(dm.lower, rel=1e-8)


def test_builtin_certificate_catalog_composition():
    E = Quantization.hilbert(2)
    F = Quantization.hilbert(2)
    names = {c.name for c in builtin_certificates(E, F)}
    assert "functional-pair" in names
    assert "coordinate-multiplication-l1" in names
    assert "coordinate-multiplication-l2" in names
    assert "hilbert-tensor-embedding" in names

    E = Quantization.max(BaseNorm.lp(1.0, weights=[1.0, 1.0]))
    names = {c.name for c in builtin_certificates(E, Quantization.hilbert(2))}
    assert "max-tensor-identity" in names
    assert "functional-pair" in names

    E = Quantization.lp(1.0, [1.0, 2.0])
    names = {c.name for c in builtin_certificates(E, Quantization.hilbert(2))}
    assert "l1-reshape" in names


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
