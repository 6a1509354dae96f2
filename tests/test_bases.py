"""Base norm descriptors: values, duals, and ball maximizers."""

import numpy as np
import pytest

from pllab import BaseNorm
from pllab.sampling import make_rng, random_complex


def brute_dual_norm(base, c, samples=4000, seed=3):
    """Sampling oracle for sup |c . x| over the unit ball of `base`."""
    rng = make_rng(seed, "brute-dual")
    best = 0.0
    for _ in range(samples):
        x = random_complex(rng, base.dim, real=base.real)
        n = base.norm(x)
        if n > 0:
            best = max(best, abs(np.dot(c, x)) / n)
    return best


def test_lp_norm_values():
    w = np.array([1.0, 2.0, 0.5])
    x = np.array([1.0, -1.0j, 2.0])
    assert BaseNorm.lp(1.0, weights=w).norm(x) == pytest.approx(1 + 2 + 1)
    assert BaseNorm.lp(2.0, weights=w).norm(x) == pytest.approx(np.sqrt(1 + 2 + 2))
    assert BaseNorm.lp(np.inf, weights=w).norm(x) == pytest.approx(2.0)
    assert BaseNorm.euclidean(3).norm(x) == pytest.approx(np.sqrt(6))


def test_polytope_norm_is_vertex_sup():
    verts = np.array(
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0], [-1.0, -1.0]]
    )
    base = BaseNorm.polytope(verts)
    x = np.array([2.0, -1.0])
    assert base.norm(x) == pytest.approx(max(abs(verts @ x)))


def test_polytope_requires_symmetric_vertices():
    with pytest.raises(ValueError):
        BaseNorm.polytope(np.array([[1.0, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("p,q", [(1.0, np.inf), (2.0, 2.0), (4.0, 4.0 / 3.0)])
def test_lp_dual_descriptor_roundtrip(p, q):
    w = np.array([1.0, 0.5, 2.0])
    base = BaseNorm.lp(p, weights=w)
    dd = base.dual_descriptor()
    assert dd.p == pytest.approx(q)
    # duality pairing: |c.x| <= ||c||_dual ||x|| with equality at the aligner
    rng = make_rng(4, "dualpair", p)
    for _ in range(20):
        c = random_complex(rng, 3)
        x = base.primal_align(c)
        assert base.norm(x) <= 1 + 1e-12
        assert abs(np.dot(c, x)) == pytest.approx(base.dual_norm(c), rel=1e-10)
        assert dd.norm(c) == pytest.approx(base.dual_norm(c), rel=1e-12)


def test_dual_norm_against_sampling_oracle():
    w = np.array([1.0, 2.0])
    c = np.array([1.0, -2.0])
    for base in (
        BaseNorm.lp(1.0, weights=w),
        BaseNorm.lp(3.0, weights=w),
        BaseNorm.lp(np.inf, weights=w),
        BaseNorm.euclidean(2),
    ):
        exact = base.dual_norm(c)
        sampled = brute_dual_norm(base, c)
        assert sampled <= exact + 1e-9
        assert sampled >= 0.95 * exact


def test_functional_dual_norm_frozen_example():
    # c = (1, -2) against unweighted l1: dual is the sup norm
    assert BaseNorm.lp(1.0, weights=[1.0, 1.0]).dual_norm(np.array([1.0, -2.0])) == 2.0


def test_polytope_dual_norm_is_none():
    verts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert BaseNorm.polytope(verts).dual_norm(np.array([1.0, 1.0])) is None


def test_dual_ball_maximize_feasible_and_attained():
    rng = make_rng(5, "dbm")
    verts = np.array([[1.0, 0.5], [-1.0, -0.5], [0.0, 1.0], [0.0, -1.0]])
    bases = [
        BaseNorm.euclidean(2),
        BaseNorm.lp(1.0, weights=[1.0, 2.0]),
        BaseNorm.lp(2.0, weights=[0.5, 1.0]),
        BaseNorm.lp(3.0, weights=[1.0, 1.0]),
        BaseNorm.lp(np.inf, weights=[1.0, 0.5]),
        BaseNorm.polytope(verts),
    ]
    for base in bases:
        A = random_complex(rng, 3, 2)
        dm = base.dual_ball_maximize(A, rng=rng)
        assert dm.lower <= dm.upper + 1e-12
        c = dm.witness
        # witness lies in the dual ball: |c.x| <= ||x|| on sampled x
        for _ in range(200):
            x = random_complex(rng, 2)
            assert abs(np.dot(c, x)) <= base.norm(x) * (1 + 1e-9)
        assert np.linalg.norm(A @ c) == pytest.approx(dm.lower, rel=1e-9)


def test_dual_ball_maximize_exact_kinds_match_oracle():
    rng = make_rng(6, "dbm-oracle")
    A = random_complex(rng, 2, 3)
    # linf dual ball: weighted l1; the supremum sits on a scaled coordinate
    base = BaseNorm.lp(np.inf, weights=[1.0, 2.0, 0.5])
    dm = base.dual_ball_maximize(A, rng=rng)
    want = max(base.weights[j] * np.linalg.norm(A[:, j]) for j in range(3))
    assert dm.upper == pytest.approx(want, rel=1e-12)
    assert dm.exact

    # euclidean: largest singular value
    dm = BaseNorm.euclidean(3).dual_ball_maximize(A, rng=rng)
    assert dm.upper == pytest.approx(np.linalg.norm(A, 2), rel=1e-12)


def test_real_mode_rejects_complex_data():
    base = BaseNorm.lp(1.0, weights=[1.0, 1.0], real=True)
    with pytest.raises(ValueError):
        base.norm(np.array([1.0j, 0.0]))


def test_element_dimension_check():
    with pytest.raises(ValueError):
        BaseNorm.euclidean(3).norm(np.array([1.0, 2.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_descriptor_numbers_are_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        BaseNorm.lp(1.0, weights=[bad, 1.0])
    verts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [bad, 0.0], [-bad, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        BaseNorm.polytope(verts)


def test_serialization_roundtrip():
    verts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0j], [0.0, -1.0j]])
    for base in (
        BaseNorm.euclidean(4),
        BaseNorm.lp(1.0, weights=[1.0, 2.0], real=True),
        BaseNorm.lp(np.inf, weights=[0.5, 0.5]),
        BaseNorm.polytope(verts),
    ):
        back = BaseNorm.from_dict(base.to_dict())
        assert back.kind == base.kind and back.dim == base.dim
        x = np.array([0.3, -0.7j] + [0.1] * (base.dim - 2))
        if base.real:
            x = x.real
        assert back.norm(x) == pytest.approx(base.norm(x), rel=1e-15)
