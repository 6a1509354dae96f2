"""Quantized norms on amplifications: per-kind oracles and shared invariants."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pllab import (
    BaseNorm,
    NormValue,
    Quantization,
    amp_norm,
    semi_ruan_witness_search,
    underlying_norm,
)
from pllab.hilbert import frobenius_norm
from pllab.quantizations import MAX_DEPTH
from pllab.sampling import make_rng, random_complex, random_unit


def test_min_euclidean_is_operator_norm():
    rng = make_rng(21, "min-euclid")
    q = Quantization.min(BaseNorm.euclidean(4))
    for _ in range(20):
        U = random_complex(rng, 3, 4)
        nv = amp_norm(q, U)
        assert nv.exact
        assert nv.value == pytest.approx(np.linalg.norm(U, 2), rel=1e-12)


def test_min_weighted_l1_real_matches_sign_enumeration():
    # oracle: the dual ball of weighted l1 is the polydisc |c_j| <= w_j,
    # and in real mode its extreme points are the 2^m sign vectors
    q = Quantization.min(BaseNorm.lp(1.0, weights=[1.0, 2.0, 0.5], real=True))
    U = np.array([[1.0, -2.0, 0.5], [0.0, 1.0, -1.0]])
    nv = amp_norm(q, U)
    assert nv.exact
    assert nv.value == pytest.approx(5.814851674806504, abs=1e-10)  # frozen brute force


def test_min_weighted_linf_column_oracle():
    rng = make_rng(22, "min-linf")
    w = np.array([1.0, 2.0, 0.5])
    q = Quantization.min(BaseNorm.lp(np.inf, weights=w))
    U = random_complex(rng, 2, 3)
    want = max(w[j] * np.linalg.norm(U[:, j]) for j in range(3))
    nv = amp_norm(q, U)
    assert nv.exact
    assert nv.value == pytest.approx(want, rel=1e-12)


def test_min_polytope_vertex_oracle():
    verts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                      [0.7, 0.7], [-0.7, -0.7]])
    q = Quantization.min(BaseNorm.polytope(verts))
    rng = make_rng(23, "min-poly")
    U = random_complex(rng, 3, 2)
    want = max(np.linalg.norm(U @ v) for v in verts)
    nv = amp_norm(q, U)
    assert nv.exact
    assert nv.value == pytest.approx(want, rel=1e-12)


def test_max_weighted_l1_closed_form():
    """Projective norm over weighted l1: sum of weighted column norms."""
    rng = make_rng(24, "max-l1")
    w = np.array([1.0, 0.5, 2.0])
    q = Quantization.max(BaseNorm.lp(1.0, weights=w))
    U = random_complex(rng, 2, 3)
    want = sum(w[j] * np.linalg.norm(U[:, j]) for j in range(3))
    nv = amp_norm(q, U)
    assert nv.value == pytest.approx(want, rel=1e-12)
    assert nv.lower == pytest.approx(want, rel=1e-9)


def test_max_euclidean_bracket_closes_on_nuclear_norm():
    # frozen oracle: nuclear norm via eigvalsh of B^H B, seed 7
    B = np.array(
        [
            [0.001230153357482574 + 0.06014360259743848j,
             0.2987455375084699 + 1.340215245554534j,
             -0.2741378553622176 - 0.4922065185513296j],
            [-0.8905918387572742 - 0.6204748998199404j,
             -0.4546707851717225 + 0.4898420501851982j,
             -0.9916465549964624 + 0.3568870081600607j],
        ]
    )
    nv = amp_norm(Quantization.max(BaseNorm.euclidean(3)), B, budget=120)
    want = 3.113951405007182
    # the refinement search tolerates reconstruction residue around 1e-9,
    # so the certified ends may drift by a few parts in 1e-8
    assert nv.value == pytest.approx(want, abs=5e-8)
    assert nv.lower == pytest.approx(want, abs=5e-8)
    assert not nv.exact  # bracketed kind, even though the bracket closes


def test_hilbert_is_frobenius():
    rng = make_rng(25, "hil")
    U = random_complex(rng, 3, 3)
    nv = amp_norm(Quantization.hilbert(3), U)
    assert nv.exact
    assert nv.value == pytest.approx(np.linalg.norm(U), rel=1e-14)


def test_lp_pointwise_combination():
    rng = make_rng(26, "lp")
    w = np.array([1.0, 2.0])
    inner = Quantization.hilbert(2)
    q = Quantization.lp(2.0, w, inner=inner)
    U = random_complex(rng, 3, 4)
    per = [np.linalg.norm(U[:, 2 * t : 2 * t + 2]) for t in range(2)]
    want = np.sqrt(sum(wi * v**2 for wi, v in zip(w, per)))
    nv = amp_norm(q, U)
    assert nv.exact
    assert nv.value == pytest.approx(want, rel=1e-12)
    # the point norms 2**-0.5 of [[0.5, 0.5]], unit-scaled, whose p-th powers all underflow
    for p in (1e5, 1e15):
        nv = amp_norm(Quantization.lp(p, weights=[1, 1]), [[0.5, 0.5]])
        assert nv.exact and nv.value == pytest.approx(0.5 * 2 ** (1 / p), rel=1e-15)


def test_lp_inf_is_pointwise_max():
    rng = make_rng(27, "lpinf")
    q = Quantization.lp(np.inf, [1.0, 1.0, 1.0])
    U = random_complex(rng, 2, 3)
    want = max(abs(U[:, t : t + 1]).max() for t in range(3))
    # scalar inner: each point contributes the euclidean norm of its column
    want = max(np.linalg.norm(U[:, t]) for t in range(3))
    assert amp_norm(q, U).value == pytest.approx(want, rel=1e-12)



def test_point_base_is_built_once_per_descriptor():
    """An lp descriptor builds the norm that combines its point norms once:
    every read of point_base returns the same object, and at p = inf its
    weights are ones, whatever the point weights."""
    q = Quantization.lp(3.0, [1.0, 0.5], inner=Quantization.hilbert(2))
    assert q.point_base is q.point_base
    np.testing.assert_array_equal(q.point_base.weights, q.weights)
    np.testing.assert_array_equal(Quantization.lp(np.inf, [2.0, 0.5]).point_base.weights, [1.0, 1.0])


def test_concrete_block_operator_oracle():
    gens = [
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
        np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    ]
    q = Quantization.concrete(gens)
    rng = make_rng(28, "conc")
    U = random_complex(rng, 2, 3)
    # independent construction of the block via kron with coordinate units
    block = sum(np.kron(U[:, [j]], gens[j]) for j in range(3))
    block = np.concatenate(
        [sum(U[i, j] * gens[j] for j in range(3)) for i in range(2)], axis=0
    )
    want = np.linalg.norm(block, 2)
    nv = amp_norm(q, U)
    assert nv.exact
    assert nv.value == pytest.approx(want, rel=1e-12)
    # single coordinate row picks out one generator
    e0 = np.zeros((1, 3), dtype=complex)
    e0[0, 0] = 1.0
    assert amp_norm(q, e0).value == pytest.approx(1.0, rel=1e-12)


def test_tensor_p_l1_base_closed_form():
    rng = make_rng(29, "tpl1")
    w = np.array([1.0, 0.5])
    q = Quantization.tensor_p(BaseNorm.lp(1.0, weights=w), Quantization.hilbert(2))
    U = random_complex(rng, 2, 4)
    want = sum(w[s] * np.linalg.norm(U[:, 2 * s : 2 * s + 2]) for s in range(2))
    nv = amp_norm(q, U, budget=120)
    assert nv.value == pytest.approx(want, rel=1e-10)


def test_norm_axioms_random_kinds():
    """Triangle inequality and absolute homogeneity across every kind."""
    from pllab.suites import quantization_pool

    rng = make_rng(30, "axioms")
    for q in quantization_pool():
        U = random_complex(rng, 2, q.dim)
        V = random_complex(rng, 2, q.dim)
        nu = amp_norm(q, U, budget=60)
        nv = amp_norm(q, V, budget=60)
        ns = amp_norm(q, U + V, budget=60)
        assert ns.lower <= nu.value + nv.value + 1e-9
        lam = -0.7 + 1.3j
        nl = amp_norm(q, lam * U, budget=60)
        assert nl.value == pytest.approx(abs(lam) * nu.value, rel=1e-9)
        assert nl.lower == pytest.approx(abs(lam) * nu.lower, rel=1e-9)
        assert amp_norm(q, 0 * U).value == 0.0


def test_min_below_max_sandwich():
    rng = make_rng(31, "sandwich")
    for base in (BaseNorm.euclidean(3), BaseNorm.lp(1.0, weights=[1.0, 2.0, 0.5])):
        lo_q = Quantization.min(base)
        hi_q = Quantization.max(base)
        for _ in range(10):
            U = random_complex(rng, 2, 3)
            lo = amp_norm(lo_q, U, budget=80)
            hi = amp_norm(hi_q, U, budget=80)
            assert lo.value <= hi.value * (1 + 1e-9) + 1e-12
            # the hilbert quantization of a euclidean base sits in between
            if base.kind == "euclidean":
                mid = amp_norm(Quantization.hilbert(3), U).value
                assert lo.value <= mid * (1 + 1e-9)
                assert mid <= hi.value * (1 + 1e-9)


def test_elementary_tensors_have_cross_norms():
    from pllab.suites import quantization_pool

    rng = make_rng(32, "cross")
    for q in quantization_pool():
        xi = random_unit(rng, 3)
        x = random_complex(rng, q.dim, real=q.base.real if q.base is not None else False)
        nv = amp_norm(q, np.multiply.outer(xi, x), budget=60)
        assert nv.value == pytest.approx(underlying_norm(q, x), abs=1e-10, rel=1e-10)


def test_normvalue_invariants_and_rng_stability():
    rng_vals = []
    q = Quantization.max(BaseNorm.euclidean(3))
    U = random_complex(make_rng(33, "stab"), 2, 3)
    for _ in range(2):
        nv = amp_norm(q, U, budget=50, seed=5)
        rng_vals.append((nv.value, nv.lower))
        assert nv.lower <= nv.value + 1e-12
    assert rng_vals[0] == rng_vals[1]  # same seed, same stream, same numbers


def test_semi_ruan_verdicts():
    ok = semi_ruan_witness_search(Quantization.hilbert(3), trials=150, seed=2)
    assert ok is None
    bad = semi_ruan_witness_search(Quantization.lp(1.0, [1.0, 1.0]), trials=150, seed=2)
    assert bad is not None
    u, v = bad["u"], bad["v"]
    q = Quantization.lp(1.0, [1.0, 1.0])
    lhs = amp_norm(q, u + v).lower ** 2
    rhs = amp_norm(q, u).value ** 2 + amp_norm(q, v).value ** 2
    assert lhs > rhs + 1e-9  # the witness certifies the violation on re-check


def test_semi_ruan_single_point_l1_passes():
    # one atom: the l1 combination is a single inner norm, which is semi-Ruan
    assert semi_ruan_witness_search(Quantization.lp(1.0, [1.0]), trials=150, seed=2) is None


def test_serialization_roundtrip_all_kinds():
    from pllab.suites import quantization_pool

    rng = make_rng(34, "ser")
    for q in quantization_pool():
        back = Quantization.from_dict(q.to_dict())
        assert back.to_dict() == q.to_dict()
        U = random_complex(rng, 2, q.dim, real=q.base.real if q.base is not None else False)
        a = amp_norm(q, U, budget=40, seed=9)
        b = amp_norm(back, U, budget=40, seed=9)
        assert a.value == b.value and a.lower == b.lower


def test_lp_inf_json_spelling():
    q = Quantization.lp(np.inf, [1.0, 2.0])
    d = q.to_dict()
    assert d["params"]["p"] == "inf"
    assert Quantization.from_dict(d).p == np.inf


def test_error_contract():
    with pytest.raises(ValueError):
        Quantization.lp(0.5, [1.0])
    for p in (1e16, 2.0**60, 1e300):  # p / (p - 1) rounds to 1: no dual exponent for the lq ascent
        for make in (lambda: Quantization.lp(p, [1.0]), lambda: BaseNorm.lp(p, dim=3)):
            with pytest.raises(ValueError, match="below about 2\\*\\*53"):
                make()
    for make in (lambda: Quantization.lp(1 + 1e-9, [0.5, 1.0]), lambda: Quantization.lp(1 + 1e-9, [1.0, 2.0]),
                 lambda: BaseNorm.lp(1 + 1e-9, weights=[1.0, 0.5, 2.0]), lambda: BaseNorm.lp(1 + 1e-9, weights=[2.0])):
        with pytest.raises(ValueError, match="dual weights"):  # w ** (-q / p) overflows at 0.5, underflows at 2
            make()
    BaseNorm.lp(1 + 1e-9, dim=3)  # unit weights keep unit dual weights
    for p in (1.0, np.inf):  # w or 1 / w subnormal: the l1 and l-infinity searches divide by both
        for w in (1e-310, 1e-309, 2.0**1023):
            for make in (lambda: Quantization.lp(p, [w, 1.0]), lambda: BaseNorm.lp(p, weights=[w, 1.0])):
                with pytest.raises(ValueError, match="normal floats"):
                    make()
        BaseNorm.lp(p, weights=[2.0**-1022, 2.0**1022])
    with pytest.raises(ValueError):
        amp_norm(Quantization.hilbert(2), np.ones((2, 3)))
    for value, lower in ((np.inf, 1.0), (np.nan, 1.0), (2.0, np.nan), (2.0, -np.inf)):  # no certified bound is
        with pytest.raises(ValueError, match="non-finite norm bounds"):  # NaN or infinite
            NormValue(value, lower, False, "test/bounds")
    with pytest.raises(ValueError):
        Quantization.from_dict({"kind": "nonsense"})
    with pytest.raises(ValueError):
        # declared dim contradicting the descriptor
        Quantization.from_dict({"kind": "hilbert", "dim": 3}).check_element(np.ones((1, 2)))


@pytest.mark.parametrize("depth", [400, 5000])
def test_descriptor_depth_is_bounded(depth):
    """A chain of MAX_DEPTH descriptors is valued; one more raises
    ValueError, from the constructors and from a dict of any depth."""
    q = Quantization.hilbert(1)
    for _ in range(MAX_DEPTH - 1):
        q = Quantization.lp(2.0, [1.0], inner=q)
    assert amp_norm(q, [[3.0]]).value == 3.0
    with pytest.raises(ValueError, match=f"chains {MAX_DEPTH + 1} descriptors through inner, at most {MAX_DEPTH}"):
        Quantization.tensor_p(BaseNorm.lp(1.0, dim=1), q)
    d = {"kind": "hilbert", "dim": 1}
    for _ in range(depth - 1):
        d = {"kind": "lp", "params": {"p": 2, "weights": [1]}, "inner": d}
    with pytest.raises(ValueError, match=f"chains {depth} descriptors"):
        Quantization.from_dict(d)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_descriptor_numbers_are_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        Quantization.lp(1.0, [bad, 1.0])
    with pytest.raises(ValueError, match="finite"):
        Quantization.concrete([np.eye(2), np.array([[0.0, bad], [1.0, 0.0]])])


@pytest.mark.parametrize("s", [1e-170, 1e200, 1e-310])
def test_amp_norm_is_homogeneous_at_extreme_scales(s):
    """np.linalg.norm underflows to 0 at 1e-170 and overflows at 1e200; at
    the subnormal 1e-310 numpy's division by the scale overflows."""
    from pllab.suites import quantization_pool

    rng = make_rng(35, "extreme-scale")
    for q in quantization_pool():
        U = random_complex(rng, 2, q.dim, real=q.base.real if q.base is not None else False)
        ref = amp_norm(q, U, budget=40, seed=9)
        nv = amp_norm(q, s * U, budget=40, seed=9)
        assert nv.value == pytest.approx(s * ref.value, rel=1e-12, abs=0)
        assert nv.lower == pytest.approx(s * ref.lower, rel=1e-12, abs=0)


def test_huge_elements_raise_no_runtime_warning():
    """np.linalg.norm overflows at 1e200; the rescaled path answers without a warning."""
    from pllab import pl_norm_bracket

    q = Quantization.min(BaseNorm.lp(1.0, weights=[1.0, 0.5, 2.0]))
    E, F = Quantization.hilbert(2), Quantization.lp(1.0, [1.0, 2.0])
    U = random_complex(make_rng(36, "huge-quiet"), 2, 4)
    ref_amp = amp_norm(q, U[:, :3], seed=9)
    ref_pl = pl_norm_bracket(E, F, U, seed=9)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        nv = amp_norm(q, 1e200 * U[:, :3], seed=9)
        b = pl_norm_bracket(E, F, 1e200 * U, seed=9)
    assert nv.value == pytest.approx(1e200 * ref_amp.value, rel=1e-12, abs=0)
    assert nv.lower == pytest.approx(1e200 * ref_amp.lower, rel=1e-12, abs=0)
    assert b.lower == pytest.approx(1e200 * ref_pl.lower, rel=1e-12, abs=0)
    assert b.upper == pytest.approx(1e200 * ref_pl.upper, rel=1e-12, abs=0)


def test_lq_ascent_starts_near_p_one_raise_no_runtime_warning():
    """At p = 1 + 1e-9 the dual exponent is about 1e9: the random starts of
    the lq ascent are scaled to the dual sphere without overflow."""
    q = Quantization.min(BaseNorm.lp(1 + 1e-9, dim=3))
    U = random_complex(make_rng(37, "lq-near-1"), 2, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nv = amp_norm(q, U, seed=9)
    assert 0.0 < nv.lower <= nv.value < np.inf


def test_a_far_weight_on_l_infinity_raises_no_runtime_warning():
    """max(lp(inf)) is valued through the l1 closed form on the dual weights
    1 / w; with w = 1e-300 the entries of B = A / w square past the float
    range, so the closed form is valued with the scaled frobenius_norm."""
    q = Quantization.max(BaseNorm.lp(np.inf, weights=[1e-300, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = amp_norm(q, [[1.0, 2.0]])
        two = amp_norm(q, [[1.0, 2.0], [3.0, 4.0]])
    assert one.value == one.lower == 2.0
    assert two.value == pytest.approx(np.sqrt(20.0), rel=1e-15) and two.lower == two.value


def test_a_block_of_subnormal_scale_over_a_min_inner_is_valued():
    """numpy divides by a float through its reciprocal, which overflows at a
    subnormal scale; the 1e-320 point is valued, and 1 + 1e-320 rounds to 1."""
    q = Quantization.lp(1.0, [1.0, 1.0], inner=Quantization.min(BaseNorm.lp(3.0, weights=[1.0, 1.0])))
    nv = amp_norm(q, [[1.0, 0.0, 1e-320, 0.0]])
    assert nv.value == 1.0 and nv.lower == 1.0


@pytest.mark.parametrize("label", [np.int64(1), np.float64(0.5), np.int32(-3)])
def test_make_rng_hashes_numpy_scalar_labels_by_their_value(label):
    assert make_rng(0, "unfold", "left", label).random() == make_rng(0, "unfold", "left", label.item()).random()


@pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_real_mode_rejects_complex_elements(p, scale):
    """amp_norm follows the base's rule at every scale, also through an lp
    inner: an admitted element is valued as its real part, so a point block
    far below the largest entry is not judged again on its own scale."""
    base = BaseNorm.lp(p, weights=[1.0, 1.0], real=True)
    for q in (Quantization.min(base), Quantization.lp(1.0, [1.0, 1.0], inner=Quantization.min(base))):
        U = scale * np.array([[1.0, -0.5, 1e-3, -1e-3], [0.5, 2.0, 2e-3, 1e-3]])[:, : q.dim]
        with pytest.raises(ValueError, match="^element must be real-valued in real-restricted mode$"):
            amp_norm(q, U + 1e-11j * np.abs(U).max() * np.array([0.0, 1.0, 0.0, 1.0])[: q.dim])
        noisy = amp_norm(q, U + 1e-14j * scale)
        assert noisy == amp_norm(q, U) and noisy.value > 0


_positive = st.floats(min_value=1e-3, max_value=1e3)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["hilbert", "lp", "lp-hilbert", "lp-lp"]),
    st.lists(_positive, min_size=1, max_size=3),
    st.lists(_positive, min_size=1, max_size=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=1e-6, max_value=1e6),
)
def test_weighted_frobenius_metric_gives_amp_norm(shape, w, w_inner, d, seed, s):
    """amp_norm(q, U) is ||U diag(g)||_F for the metric g of q."""
    q = {
        "hilbert": Quantization.hilbert(3),
        "lp": Quantization.lp(2.0, w),
        "lp-hilbert": Quantization.lp(2.0, w, Quantization.hilbert(2)),
        "lp-lp": Quantization.lp(2.0, w, Quantization.lp(2.0, w_inner)),
    }[shape]
    g = q.frobenius_metric
    assert g.shape == (q.dim,)
    U = s * random_complex(make_rng(seed, "metric"), d, q.dim)
    nv = amp_norm(q, U)
    assert nv.exact
    assert nv.value == pytest.approx(np.linalg.norm(U * g), rel=1e-12, abs=0)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([1.0, 1.5, 2.0, 3.0, np.inf]),
    st.lists(_positive, min_size=1, max_size=4),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([1.0, 1e-150, 1e150]),
)
def test_lp_over_hilbert_is_one_pass(p, w, mi, d, seed, s):
    """lp(p, w, hilbert(mi)) combines the blocks' Frobenius norms exactly,
    and gives the bits of valuing each block through _amp_dispatch on its
    own; some blocks are zero."""
    from pllab.quantizations import _amp_dispatch

    rng = make_rng(seed, "lp-one-pass")
    q = Quantization.lp(p, w, inner=Quantization.hilbert(mi))
    U = random_complex(rng, d, q.dim)
    U[:, np.repeat(rng.random(len(w)) < 0.3, mi)] = 0.0
    blocks = [U[:, t * mi : (t + 1) * mi] for t in range(len(w))]
    n = np.array([np.linalg.norm(b) for b in blocks])
    want = n.max() if np.isinf(p) else np.sum(np.array(w) * n**p) ** (1.0 / p)
    nv = amp_norm(q, s * U)
    assert nv.exact and nv.lower == nv.value
    assert nv.value == pytest.approx(s * want, rel=1e-13, abs=0)
    if n.any():  # each unit-scaled block valued on its own, rescaled by its own norm
        S = frobenius_norm(s * U)
        per_point = np.zeros(len(w))
        for t, b in enumerate(blocks):
            b = s * b / S
            if b.any():
                r = np.linalg.norm(b)
                per_point[t] = _amp_dispatch(q.inner, b / r, 20, None)[0] * r
        bits = per_point.max() if np.isinf(p) else np.sum(q.weights * per_point**p) ** (1.0 / p)
        assert nv.value == float(bits) * S


@pytest.mark.parametrize("mi, u, norm", [
    (1, [[1.0, 1.6e-162]], 1.6e-162),
    (2, [[1.0, 0.0, 3e-162, 4e-162]], 5e-162),
    (2, [[1.0, 0.0, 3e-170, 4e-170]], 5e-170),
    (1, [[1.0, 1e-320]], 1e-320),  # a subnormal block scale
    (2, [[1.0, 0.0, 1e-320, 0.0]], 1e-320),
])
def test_lp_over_hilbert_values_blocks_whose_squares_underflow(mi, u, norm):
    """A tiny block beside a unit block gets its norm to rounding, however
    heavy its weight: its squares are subnormal or zero."""
    q = Quantization.lp(1.0, [1.0, 1e300], inner=Quantization.hilbert(mi))
    nv = amp_norm(q, u)
    assert nv.exact and nv.lower == nv.value
    assert nv.value == pytest.approx(1.0 + 1e300 * norm, rel=1e-13, abs=0)


def test_frobenius_metric_values_and_none_kinds():
    w = [1.0, 0.25]
    np.testing.assert_array_equal(Quantization.hilbert(3).frobenius_metric, np.ones(3))
    np.testing.assert_array_equal(Quantization.lp(2.0, w).frobenius_metric, [1.0, 0.5])
    np.testing.assert_array_equal(
        Quantization.lp(2.0, w, Quantization.hilbert(2)).frobenius_metric, [1.0, 1.0, 0.5, 0.5]
    )
    euc = BaseNorm.euclidean(2)
    for q in (
        Quantization.lp(1.0, w),
        Quantization.lp(3.0, w),
        Quantization.lp(np.inf, w),
        Quantization.lp(2.0, w, Quantization.min(euc)),
        Quantization.lp(2.0, w, Quantization.lp(1.0, w)),
        Quantization.min(euc),
        Quantization.max(euc),
        Quantization.concrete([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]),
        Quantization.tensor_p(euc, Quantization.hilbert(2)),
    ):
        assert q.frobenius_metric is None, q.kind


_TABLE_BASES = {
    "weighted-l1": BaseNorm.lp(1.0, weights=[1.0, 0.5, 2.0]),
    "euclidean": BaseNorm.euclidean(3),
    "l3": BaseNorm.lp(3.0, dim=3),
    "polytope": BaseNorm.polytope(np.vstack([np.eye(3), np.ones((1, 3)), -np.eye(3), -np.ones((1, 3))])),
}


@pytest.mark.parametrize("base", list(_TABLE_BASES.values()), ids=list(_TABLE_BASES))
def test_max_is_tensor_p_over_the_scalar_inner(base, monkeypatch):
    """max(B) is bracketed as tensor_p(B, scalar), bit for bit, through one
    tensor_p_bracket call."""
    from pllab import quantizations

    calls = []
    bracket = quantizations.tensor_p_bracket
    monkeypatch.setattr(quantizations, "tensor_p_bracket", lambda *a: calls.append(a[1].kind) or bracket(*a))
    tp = Quantization.tensor_p(base, Quantization.scalar())
    for d in (1, 2, 3):
        U = random_complex(make_rng(39, "max-tp", d), d, base.dim)
        mx = amp_norm(Quantization.max(base), U, rng=make_rng(0, "max-tp-draws", d))
        assert calls == ["hilbert"]
        nv = amp_norm(tp, U, rng=make_rng(0, "max-tp-draws", d))
        assert (mx.value, mx.lower, mx.exact) == (nv.value, nv.lower, nv.exact)
        calls.clear()


def _facts(q) -> tuple:
    """(underlying_base, projective_base, semi_ruan) of q, bases by to_dict."""
    dicts = [None if b is None else b.to_dict() for b in (q.underlying_base, q.projective_base)]
    return (*dicts, q.semi_ruan)


def test_descriptor_facts_of_the_pool_and_the_catalog_targets():
    from pllab.maps import builtin_certificates
    from pllab.suites import quantization_pool

    pool = quantization_pool()
    own = lambda i: pool[i].base.to_dict()
    lp = lambda p, w: BaseNorm.lp(p, weights=w).to_dict()
    expected = [  # by pool index: underlying base, projective base, semi-Ruan
        (own(0), None, True),  # min(euclidean 3)
        (own(1), None, True),  # min(weighted l1)
        (own(2), None, True),  # min(l_inf)
        (own(3), None, True),  # min(polytope)
        (own(4), own(4), False),  # max(weighted l1)
        (own(5), own(5), False),  # max(euclidean 2)
        (lp(1.0, [1.0, 0.5, 2.0]), lp(1.0, [1.0, 0.5, 2.0]), False),  # lp(1), three points
        (lp(2.0, [1.0, 1.0]), None, True),  # lp(2)
        (lp(np.inf, [1.0, 1.0]), None, True),  # lp(inf): the point base has no weights
        (None, None, True),  # lp(2) over hilbert(2)
        (own(10), None, True),  # hilbert(3)
        (None, None, True),  # concrete
        (None, None, False),  # tensor_p(l1, hilbert 2)
        (None, None, False),  # tensor_p(euclidean, hilbert 2)
    ]
    assert [_facts(q) for q in pool] == expected
    by_name = {  # certificate -> (underlying base kind, projective base kind, semi-Ruan) of its target
        "functional-pair": ("euclidean", None, True),
        "coordinate-multiplication-l1": ("lp", "lp", False),
        "coordinate-multiplication-l2": ("euclidean", None, True),
        "hilbert-tensor-embedding": ("euclidean", None, True),
    }
    seen = set()
    for E in pool:
        for F in pool:
            for cert in builtin_certificates(E, F):
                ub, pb, semi = _facts(cert.target)
                assert (ub and ub["kind"], pb and pb["kind"], semi) == by_name[cert.name], cert.name
                seen.add(cert.name)
    assert seen == set(by_name)
    # a max or l1 factor has no target: the pl bracket's projective family identifies it
    from pllab import pl_norm_bracket

    U = random_complex(make_rng(0, "facts"), 1, pool[4].dim * pool[6].dim)
    for E, F, rows in ((pool[4], pool[6], {"max-tensor-identity", "l1-reshape-right"}),
                       (pool[6], pool[4], {"l1-reshape", "max-tensor-identity-right"})):
        assert rows <= set(pl_norm_bracket(E, F, U, budget=60).details["certificates"])


def _counted_amp_norm(monkeypatch):
    """Count calls of amp_norm made through the quantizations module."""
    from pllab import quantizations

    calls = []
    amp = quantizations.amp_norm

    def counted(q, *args, **kwargs):
        calls.append(q.kind)
        return amp(q, *args, **kwargs)

    monkeypatch.setattr(quantizations, "amp_norm", counted)
    return calls


@pytest.mark.parametrize(
    "inner",
    [
        Quantization.hilbert(2),
        Quantization.lp(2.0, [1.0, 0.5]),
        Quantization.lp(2.0, [1.0, 0.5], Quantization.hilbert(2)),
        Quantization.lp(2.0, [2.0, 0.3], Quantization.lp(2.0, [0.7, 1.5])),
    ],
    ids=["hilbert", "lp2", "lp2-hilbert", "lp2-lp2"],
)
def test_tensor_p_bracket_on_euclidean_base_is_exact_without_amp_norm(inner, monkeypatch):
    """A weighted Frobenius inner makes the bracket the nuclear norm of the
    column-scaled slices, with no inner norm evaluated term by term."""
    from pllab.projective import RECON_TOL
    from pllab.quantizations import _beta_slices, tensor_p_bracket

    base = BaseNorm.euclidean(3)
    calls = _counted_amp_norm(monkeypatch)
    for d in (1, 2, 3):
        U = random_complex(make_rng(37, "tp-metric", d), d, base.dim * inner.dim)
        res = tensor_p_bracket(base, inner, U, 200, make_rng(0, "tp"))
        Z = _beta_slices(U, base.dim, inner.dim)
        nuclear = np.linalg.norm(Z * np.tile(inner.frobenius_metric, d), "nuc")
        assert res.upper == pytest.approx(nuclear, rel=1e-12, abs=0)
        assert res.lower == pytest.approx(res.upper, rel=1e-12, abs=0)
        recon = sum(np.multiply.outer(x, v) for x, v in res.terms)
        assert np.linalg.norm(recon - Z) <= RECON_TOL * max(1.0, np.linalg.norm(Z))
    assert calls == []


def test_semi_ruan_search_finds_the_tensor_p_witness_in_its_structured_phase(monkeypatch):
    """tensor_p(euclidean 2, lp(2, [1, 1])) is not semi-Ruan: e_(0,0) and
    e_(1,0) on two H rows have norm 1 each, their sum the nuclear norm 2."""
    q = Quantization.tensor_p(BaseNorm.euclidean(2), Quantization.lp(2.0, [1.0, 1.0]))
    calls = _counted_amp_norm(monkeypatch)
    w = semi_ruan_witness_search(q, trials=200)
    assert w is not None
    assert w["excess"] >= 2 - 1e-9
    assert len(calls) <= 3 * q.dim**2  # three amp_norm calls per structured trial


@pytest.mark.parametrize(
    "base",
    [
        BaseNorm.euclidean(3),
        BaseNorm.lp(1.0, weights=[1.0, 0.5, 2.0]),
        BaseNorm.lp(3.0, dim=3),
        BaseNorm.polytope(np.vstack([np.eye(3), np.ones((1, 3)), -np.eye(3), -np.ones((1, 3))])),
    ],
    ids=["euclidean", "weighted-l1", "l3", "polytope"],
)
def test_proj_bracket_values_are_the_term_values_of_its_upper(base):
    """One value ||x_k|| ||V_k|| per term, summing to the upper bound, on every
    path: svd, slices, the l1 closed form and the refinement."""
    from pllab.projective import proj_bracket

    methods = set()
    for n in (1, 2, 4):
        Z = random_complex(make_rng(41, "proj-values", base.kind, n), base.dim, n)
        res = proj_bracket(base, None, Z, budget=200, rng=make_rng(0, "proj"))
        methods.add(res.upper_method)
        assert len(res.values) == len(res.terms)
        assert sum(res.values) == pytest.approx(res.upper, rel=1e-12, abs=0)
        for (x, v), val in zip(res.terms, res.values):
            assert val == pytest.approx(base.norm(x) * np.linalg.norm(v), rel=1e-12, abs=0)
    if base.kind in ("lp", "polytope") and base.p != 1.0:
        assert "svd+refine" in methods


_SEARCH_BASES = {
    "l3": BaseNorm.lp(3.0, dim=3),
    "linf": BaseNorm.lp(np.inf, dim=3),
    "polytope": BaseNorm.polytope(np.vstack([np.eye(3), np.ones((1, 3)), -np.eye(3), -np.ones((1, 3))])),
}


@pytest.mark.parametrize("base", list(_SEARCH_BASES.values()), ids=list(_SEARCH_BASES))
def test_refinement_draws_do_not_depend_on_accepted_moves(base):
    """The search draws its whole budget at once, so the shared generator
    stands at the same place after a search that wins as after one that
    accepts no move: on e_0 (x) f_0 + 1e-8 e_1 (x) f_1 every mix leaves the
    value as it is or raises it."""
    from pllab.projective import proj_bracket

    wins = random_complex(make_rng(53, "refine-draws"), base.dim, 2)
    wins[2] = 0.0
    stuck = np.zeros((base.dim, 2), dtype=complex)
    stuck[0, 0], stuck[1, 1] = 1.0, 1e-8
    methods, next_draws = [], []
    for Z in (wins, stuck):
        rng = make_rng(0, "proj")
        methods.append(proj_bracket(base, None, Z, budget=200, rng=rng).upper_method)
        next_draws.append(rng.random())
    assert methods[0].endswith("+refine") and not methods[1].endswith("+refine")
    assert next_draws[0] == next_draws[1]


def test_refinement_draws_over_a_drawing_inner_do_not_depend_on_accepted_moves():
    """tensor_p over min(lp 3), whose every factor evaluation is a dual-ball
    ascent that draws from the shared generator: the values of an accepted
    move are kept, not valued again, so the generator stands at the same place
    after a search that wins as after one that accepts no move."""
    from pllab.quantizations import tensor_p_bracket

    base, inner = BaseNorm.lp(3.0, dim=3), Quantization.min(BaseNorm.lp(3.0, dim=2))
    wins = random_complex(make_rng(61, "refine-inner"), 2, base.dim * inner.dim)
    wins[:, 2 * inner.dim:] = 0.0  # two nonzero slices, as in the stuck element
    stuck = np.zeros((2, base.dim * inner.dim), dtype=complex)
    stuck[0, 0], stuck[1, inner.dim + 1] = 1.0, 1e-8  # slices e_0 (x) f_0 and 1e-8 e_1 (x) f_3
    methods, next_draws = [], []
    for U in (wins, stuck):
        rng = make_rng(0, "tp")
        methods.append(tensor_p_bracket(base, inner, U, 200, rng).upper_method)
        next_draws.append(rng.random())
    assert methods[0].endswith("+refine") and not methods[1].endswith("+refine")
    assert next_draws[0] == next_draws[1]


def test_refinement_moves_are_drawn_in_bounded_batches():
    """A budget past one batch draws its moves batch by batch: the first batch
    is the stream of a budget of exactly one batch, and no batch is longer.
    Every move is a unitary mix [[c, s], [-conj(s), c]], c real, so no budget
    goes to moves that leave every term value as it is."""
    from pllab.projective import _MOVE_CHUNK, _moves

    one = list(_moves(make_rng(0, "moves"), 3, _MOVE_CHUNK))
    more = list(_moves(make_rng(0, "moves"), 3, _MOVE_CHUNK + 5))
    assert len(more) == _MOVE_CHUNK + 5 and more[:_MOVE_CHUNK] == one
    assert all(k != l for k, l, *_ in more)
    assert all(isinstance(c, float) and abs(c * c + abs(s) ** 2 - 1.0) <= 1e-15 for *_, c, s in more)


@pytest.mark.parametrize("name", ["l3", "polytope"])
def test_refinement_starts_from_the_values_of_the_decomposition_it_refines(name):
    """One factor call per nonzero slice, per SVD term, two per move and one
    per lower-bound functional: the refinement values no term before its first
    move, since the winning decomposition has just valued them."""
    from pllab.projective import proj_bracket

    base, calls = _SEARCH_BASES[name], []

    def factor(v):
        calls.append(v)
        n = np.linalg.norm(v)
        return n, n, True

    Z = random_complex(make_rng(67, "refine-start", name), base.dim, 4)
    res = proj_bracket(base, factor, Z, budget=200, rng=make_rng(0, "proj"))
    functionals = len(base.vertices) if base.kind == "polytope" else 1 + base.dim
    assert res.upper_method.endswith("+refine")
    assert len(calls) == base.dim + min(Z.shape) + 2 * 200 + functionals  # a random Z: full rank, no zero slice


@pytest.mark.parametrize(
    "base", [*_SEARCH_BASES.values(), BaseNorm.lp(1.5, weights=[1.0, 0.5, 2.0])],
    ids=[*_SEARCH_BASES, "weighted-l1.5"],
)
def test_long_refinement_keeps_reconstruction_and_term_values(base):
    """After 2000 moves the terms still rebuild Z, and every kept value is
    the base norm times the factor norm of its term."""
    from pllab.projective import RECON_TOL, proj_bracket

    Z = random_complex(make_rng(59, "refine-long", base.kind), base.dim, 4)
    res = proj_bracket(base, None, Z, budget=2000, rng=make_rng(0, "proj"))
    assert res.upper_method.endswith("+refine")
    recon = sum(np.multiply.outer(x, v) for x, v in res.terms)
    assert np.linalg.norm(recon - Z) <= RECON_TOL * max(1.0, np.linalg.norm(Z))
    for (x, v), val in zip(res.terms, res.values):
        assert val == pytest.approx(base.norm(x) * np.linalg.norm(v), rel=1e-12, abs=0)


def test_long_refinement_over_a_non_metric_inner_keeps_its_values():
    """tensor_p over min(euclidean 2), an inner without a Frobenius metric:
    the values of accepted moves are kept, not valued again, and each still
    equals the base norm times the inner amp_norm of its term."""
    from pllab.projective import RECON_TOL
    from pllab.quantizations import _beta_slices, tensor_p_bracket

    base, inner = BaseNorm.lp(3.0, dim=3), Quantization.min(BaseNorm.euclidean(2))
    U = random_complex(make_rng(61, "refine-inner"), 2, base.dim * inner.dim)
    res = tensor_p_bracket(base, inner, U, 2000, make_rng(0, "tp"))
    assert res.upper_method.endswith("+refine")
    Z = _beta_slices(U, base.dim, inner.dim)
    recon = sum(np.multiply.outer(x, v) for x, v in res.terms)
    assert np.linalg.norm(recon - Z) <= RECON_TOL * max(1.0, np.linalg.norm(Z))
    for (x, v), val in zip(res.terms, res.values):
        want = base.norm(x) * amp_norm(inner, v.reshape(-1, inner.dim)).value
        assert val == pytest.approx(want, rel=1e-12, abs=0)


def test_proj_bracket_on_a_weighted_l1_base_evaluates_each_nonzero_slice_once():
    """l1 (x)_pi W = l1(W): the bracket is the weighted column sum of one
    factor evaluation per nonzero slice, before any SVD or refinement."""
    from pllab.projective import proj_bracket

    base = BaseNorm.lp(1.0, weights=[1.0, 0.5, 2.0, 0.8])
    Z = random_complex(make_rng(43, "l1-slices"), 4, 3)
    Z[2] = 0.0
    seen = []

    def factor(v):
        seen.append(v.copy())
        n = float(np.linalg.norm(v))
        return 1.5 * n, 0.5 * n, len(seen) != 2

    res = proj_bracket(base, factor, Z, budget=200, rng=make_rng(0, "proj"))
    assert len(seen) == 3
    assert all(np.array_equal(v, Z[j]) for v, j in zip(seen, (0, 1, 3)))
    norms = [base.weights[j] * np.linalg.norm(Z[j]) for j in (0, 1, 3)]
    assert res.upper_method == "l1-columns"
    assert res.upper == pytest.approx(1.5 * sum(norms), rel=1e-14, abs=0)
    assert res.lower == pytest.approx(0.5 * sum(norms), rel=1e-14, abs=0)
    assert res.exact is False  # the second evaluation was not exact
    assert [len(x) for x, _ in res.terms] == [4, 4, 4]
    assert sum(res.values) == pytest.approx(res.upper, rel=1e-14, abs=0)


def test_tensor_p_bracket_on_a_weighted_l1_base_with_an_inexact_inner(monkeypatch):
    """Over min(lp(3, ...)) the inner norm is bracketed, not exact: the
    tensor_p bracket is [sum_j w_j lower_j, sum_j w_j upper_j] of the inner
    evaluations, one _valued step per nonzero slice, and not exact."""
    from pllab import quantizations
    from pllab.quantizations import _beta_slices, tensor_p_bracket

    base = BaseNorm.lp(1.0, weights=[1.0, 0.5, 2.0])
    inner = Quantization.min(BaseNorm.lp(3.0, dim=2))
    evaluations = []
    valued = quantizations._valued

    def recorded(*args):
        out = valued(*args)
        evaluations.append(NormValue(*out))
        return out

    monkeypatch.setattr(quantizations, "_valued", recorded)
    for d in (1, 2):
        evaluations.clear()
        U = random_complex(make_rng(47, "l1-inexact", d), d, base.dim * inner.dim)
        res = tensor_p_bracket(base, inner, U, 200, make_rng(0, "tp"))
        assert len(evaluations) == base.dim
        assert not all(nv.exact for nv in evaluations)
        w = base.weights
        assert res.upper == pytest.approx(sum(w * [nv.value for nv in evaluations]), rel=1e-14, abs=0)
        assert res.lower == pytest.approx(sum(w * [nv.lower for nv in evaluations]), rel=1e-14, abs=0)
        assert res.lower < res.upper
        assert res.exact is False
        assert res.upper_method == "l1-columns"
        Z = _beta_slices(U, base.dim, inner.dim)
        assert all(np.array_equal(v, Z[j]) for j, (_, v) in enumerate(res.terms))


@pytest.mark.parametrize("base, seed, value", [
    (BaseNorm.lp(1.0, weights=[1.0, 0.5, 2.0]), 1, 3.793085535423767),
    (BaseNorm.lp(3.0, dim=2), 2, 3.8375130706431064),
])
def test_amp_norm_checks_its_element_once(monkeypatch, base, seed, value):
    """The factor evaluations of a tensor_p over an inner without a Frobenius
    metric value unit-scaled slices with no re-check of their own."""
    q = Quantization.tensor_p(base, Quantization.min(BaseNorm.lp(3.0, dim=2)))
    calls = []
    check = Quantization.check_element
    monkeypatch.setattr(Quantization, "check_element", lambda self, u: calls.append(1) or check(self, u))
    nv = amp_norm(q, np.random.default_rng(seed).standard_normal((2, q.dim)))
    assert nv.value == value
    assert len(calls) == 1
