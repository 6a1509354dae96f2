"""Quantized norms on amplifications: per-kind oracles and shared invariants."""

import warnings

import numpy as np
import pytest

from pllab import (
    BaseNorm,
    Quantization,
    amp_norm,
    semi_ruan_witness_search,
    underlying_norm,
)
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


def test_lp_inf_is_pointwise_max():
    rng = make_rng(27, "lpinf")
    q = Quantization.lp(np.inf, [1.0, 1.0, 1.0])
    U = random_complex(rng, 2, 3)
    want = max(abs(U[:, t : t + 1]).max() for t in range(3))
    # scalar inner: each point contributes the euclidean norm of its column
    want = max(np.linalg.norm(U[:, t]) for t in range(3))
    assert amp_norm(q, U).value == pytest.approx(want, rel=1e-12)


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
    with pytest.raises(ValueError):
        amp_norm(Quantization.hilbert(2), np.ones((2, 3)))
    with pytest.raises(ValueError):
        Quantization.from_dict({"kind": "nonsense"})
    with pytest.raises(ValueError):
        # declared dim contradicting the descriptor
        Quantization.from_dict({"kind": "hilbert", "dim": 3}).check_element(np.ones((1, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_descriptor_numbers_are_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        Quantization.lp(1.0, [bad, 1.0])
    with pytest.raises(ValueError, match="finite"):
        Quantization.concrete([np.eye(2), np.array([[0.0, bad], [1.0, 0.0]])])


@pytest.mark.parametrize("s", [1e-170, 1e200])
def test_amp_norm_is_homogeneous_at_extreme_scales(s):
    """np.linalg.norm underflows to 0 at 1e-170 and overflows at 1e200."""
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


def test_real_mode_rejects_complex_elements():
    q = Quantization.min(BaseNorm.lp(1.0, weights=[1.0, 1.0], real=True))
    with pytest.raises(ValueError):
        amp_norm(q, np.array([[1.0j, 0.0]]))
