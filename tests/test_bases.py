"""Base norm descriptors: values, duals, and ball maximizers.

The pinned ascent data in tests/data/ascent_pins.json holds, per seeded case,
the dual-ball bounds and the generator's next draw.  A change meant to move
the ascents re-records only the rows it moves, lowers within 1e-12 and uppers
never higher; ``PYTHONPATH=src python tests/test_bases.py`` rewrites every row
from the current code.
"""

import json
import pathlib
import warnings

import numpy as np
import pytest

from pllab import BaseNorm, Quantization
from pllab.maps import underlying_dual_norm
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
    # at a large p every power underflows, or one overflows: each is valued over x / max |x_j|
    assert BaseNorm.lp(2000.0, dim=2).norm([0.5, 0.5]) == pytest.approx(0.5 * 2 ** (1 / 2000), rel=1e-15)
    assert BaseNorm.lp(2000.0, dim=2).norm([3, 1]) == 3.0
    assert BaseNorm.lp(1e15, weights=w).norm(x) == pytest.approx(2.0, rel=1e-14)



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


@pytest.mark.parametrize("p", [1.0, 3.0, np.inf])
def test_dual_descriptor_is_built_once_per_descriptor(p):
    """dual_norm and the dual-ball ascents ask for it on every call."""
    base = BaseNorm.lp(p, weights=[1.0, 0.5, 2.0])
    assert base.dual_descriptor() is base.dual_descriptor()


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["maxima", "negated-minima"])
def test_keep_best_keeps_the_earlier_of_near_ties(sign):
    """A later value replaces the best only when it beats it by more than
    TIE_RTOL relative, for a least value scanned negated as for a greatest."""
    from pllab.bases import TIE_RTOL, _keep_best

    tied, better = sign * (1.0 + sign * TIE_RTOL / 2), sign * (1.0 + sign * TIE_RTOL * 5)
    assert _keep_best([(sign, "first"), (tied, "tied")]) == (sign, "first")
    assert _keep_best([(sign, "first"), (tied, "tied"), (better, "better")]) == (better, "better")


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
        BaseNorm.lp(2000.0, weights=[1.0, 0.5]),  # the Hoelder sums of a large p under- and overflow
        BaseNorm.lp(1e15, weights=[1.0, 2.0]),
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


_REAL_BASES = {
    "euclidean": lambda: BaseNorm.euclidean(2, real=True),
    **{f"lp{p:g}": (lambda p=p: BaseNorm.lp(p, weights=[1.0, 0.5], real=True)) for p in (1.0, 2.0, 3.0, np.inf)},
    "polytope": lambda: BaseNorm.polytope([[1, 0], [0, 1], [1, 1], [-1, 0], [0, -1], [-1, -1]], real=True),
}


@pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
@pytest.mark.parametrize("kind", list(_REAL_BASES))
def test_real_mode_rejects_complex_data(kind, scale):
    """One rule at every scale and on every base kind: an imaginary part
    above 1e-12 times the largest entry modulus is rejected by norm,
    primal_align and dual_ball_maximize; below it the element is taken as
    its real part."""
    base = _REAL_BASES[kind]()
    x, A = scale * np.array([1.0, 1.0j]), scale * np.array([[1.0, 1.0j], [0.5, 2.0]])
    for call in (lambda: base.norm(x), lambda: base.primal_align(x),
                 lambda: base.dual_ball_maximize(A, rng=make_rng(0, "real-mode"))):
        with pytest.raises(ValueError, match="^element must be real-valued in real-restricted mode$"):
            call()
    x, A = scale * np.array([1.0, -2.0]), scale * np.array([[1.0, -2.0], [0.5, 2.0]])
    noise = 1e-14j * scale
    assert base.norm(x + noise) == base.norm(x)
    np.testing.assert_array_equal(base.primal_align(x + noise), base.primal_align(x))
    dm, want = (base.dual_ball_maximize(M, rng=make_rng(0, "real-mode")) for M in (A + noise, A))
    assert (dm.lower, dm.upper, dm.exact) == (want.lower, want.upper, want.exact)
    np.testing.assert_array_equal(dm.witness, want.witness)
    assert not np.any(dm.witness.imag)


def test_real_l1_one_row_takes_the_closed_form_past_the_sign_enumeration_limit():
    """A one-row A over a real l1 base of 17 coordinates, one past the sign
    enumeration, gets the exact value sum_j |a_j w_j| and a real witness."""
    rng = make_rng(5, "real-l1-row")
    w = 0.5 + 1.5 * rng.random(17)
    a = rng.standard_normal(17)
    dm = BaseNorm.lp(1.0, weights=w, real=True).dual_ball_maximize(a[None, :], rng=rng)
    want = float(np.sum(np.abs(a * w)))
    assert dm.exact
    assert dm.lower == pytest.approx(want, rel=1e-12) and dm.upper == dm.lower
    assert not np.any(dm.witness.imag) and np.array_equal(np.abs(dm.witness), w)  # the signs of a w
    assert abs(a @ dm.witness) == pytest.approx(want, rel=1e-12)


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


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_holder_align_matches_primal_align_by_column(p, real):
    rng = make_rng(7, "holder-columns", p, real)
    base = BaseNorm.lp(p, weights=0.5 + rng.random(4), real=real)
    C = random_complex(rng, 4, 5, real=real)
    C[:, 2] = 0.0
    C[1, 3] = 0.0
    X = base._holder_align(C)
    for j in range(C.shape[1]):
        np.testing.assert_array_equal(X[:, j], base.primal_align(C[:, j]))
    assert not np.any(X[:, 2])


# -- closed-form weighted-l1 polydisc suprema ----------------------------------


@pytest.mark.parametrize("m,rows", [(2, rows) for rows in range(1, 5)] + [(m, 1) for m in range(3, 7)])
def test_l1_closed_forms_are_exact_feasible_and_beat_a_phase_grid(m, rows):
    """At two coordinates or one row of A the complex polydisc supremum is
    returned in closed form: exact, attained by a feasible witness, at least
    the maximum over 720 grid phases, and with no draw from rng."""
    data = make_rng(8, "l1-closed-form", m, rows)
    phases = np.exp(2j * np.pi * np.arange(720) / 720)
    for _ in range(10):
        base = BaseNorm.lp(1.0, weights=0.25 + 2.0 * data.random(m))
        A = random_complex(data, rows, m)
        rng = make_rng(9, "untouched")
        dm = base.dual_ball_maximize(A, rng=rng)
        assert dm.exact
        assert rng.random() == make_rng(9, "untouched").random()
        c = dm.witness
        assert np.all(np.abs(c) <= base.weights * (1 + 1e-12))
        assert np.linalg.norm(A @ c) == pytest.approx(dm.lower, rel=1e-12, abs=0)
        assert dm.upper == pytest.approx(dm.lower, rel=1e-12, abs=0)
        B = A * base.weights
        if m == 2:
            # the global phase is free: z = (1, e^(i t)) over the grid
            grid = np.linalg.norm(B[:, :1] + B[:, 1:] * phases[None, :], axis=0).max()
        else:
            # 720 grid points of the torus, the first coordinate's phase fixed
            Z = phases[data.integers(0, 720, size=(m - 1, 720))]
            grid = np.abs(B[0, 0] + B[0, 1:] @ Z).max()
        assert dm.lower >= grid * (1 - 1e-12)


# -- pinned multi-start ascents ------------------------------------------------

ASCENT_PINS = pathlib.Path(__file__).parent / "data" / "ascent_pins.json"


def _ascent_grid():
    """(p, m, starts, real) of the pinned ascent cases; p = 1 real is sign enumeration."""
    return [
        (p, m, starts, real)
        for real in (False, True)
        for p in (1.0, 1.5, 3.0, 4.0)
        if not (real and p == 1.0)
        for m in range(2, 7)
        for starts in range(1, 9)
    ]


def _ascent_case(p, m, starts, real):
    """Run one seeded ascent; returns the base, A, the result and the next draw."""
    data = make_rng(41, "ascent-pin", p, m, starts, real)
    base = BaseNorm.lp(p, weights=0.25 + 2.0 * data.random(m), real=real)
    A = random_complex(data, int(data.integers(1, 5)), m, real=real)
    rng = make_rng(42, "ascent-rng", p, m, starts, real)
    dm = base.dual_ball_maximize(A, rng=rng, starts=starts)
    return base, A, dm, float(rng.random())


def _record_ascent_pins():
    """Write the pinned ascent data from the current code."""
    rows = []
    for case in _ascent_grid():
        _, _, dm, after = _ascent_case(*case)
        rows.append({"case": list(case), "lower": dm.lower, "upper": dm.upper, "next_draw": after})
    ASCENT_PINS.write_text(json.dumps(rows, indent=1) + "\n")


@pytest.mark.parametrize(
    "case", _ascent_grid(), ids=lambda c: f"p{c[0]}-m{c[1]}-starts{c[2]}" + ("-real" if c[3] else "")
)
def test_multi_start_ascents_are_pinned(case):
    """Bounds and next draw as pinned; witnesses are not pinned because starts
    that tie to rounding may swap."""
    row = {tuple(r["case"]): r for r in json.loads(ASCENT_PINS.read_text())}[case]
    base, A, dm, after = _ascent_case(*case)
    assert dm.lower == pytest.approx(row["lower"], rel=1e-12, abs=0)
    assert dm.upper == pytest.approx(row["upper"], rel=1e-12, abs=0)
    assert after == row["next_draw"]  # the same draws were consumed
    c = dm.witness
    if base.p == 1.0:
        assert np.all(np.abs(c) <= base.weights * (1 + 1e-12))
    else:
        assert base.dual_norm(c) <= 1 + 1e-12
    assert np.linalg.norm(A @ c) == pytest.approx(dm.lower, rel=1e-12, abs=0)


if __name__ == "__main__":
    _record_ascent_pins()


def test_polytope_primal_align_is_feasible_and_norms_the_vertices():
    """For a vertex v of the dual ball, sup |v . x| over the primal ball is 1."""
    tri = np.array([[1.0, 0.5], [-1.0, -0.5], [0.0, 1.0], [0.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    base = BaseNorm.polytope(tri)
    for v in tri:
        for s in (1.0, 2.5j):
            x = base.primal_align(s * v)
            assert base.norm(x) <= 1 + 1e-12
            assert abs(np.dot(s * v, x)) == pytest.approx(abs(s), rel=1e-12)
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x = base.primal_align(c)
        assert base.norm(x) <= 1 + 1e-12
        # the dual norm of c is at most sum_k |a_k| for any c = sum_k a_k v_k
        assert abs(np.dot(c, x)) <= np.sum(np.abs(np.linalg.lstsq(tri[[0, 2]].T, c, rcond=None)[0])) + 1e-9


def test_euclidean_norms_hold_at_extreme_scales():
    """The public euclidean norm, dual norm and primal_align value elements
    whose squared entries overflow or underflow, with no warning, and agree
    bit for bit with numpy's l2 formula on normal-range elements."""
    e, q = BaseNorm.euclidean(3), Quantization.hilbert(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c, n in (([1e200, 2e200, 2e200], 3e200), ([3e-170, 4e-170, 0.0], 5e-170)):
            c = np.asarray(c, dtype=complex)
            assert e.norm(c) == pytest.approx(n, rel=1e-15)
            assert e.dual_norm(c) == pytest.approx(n, rel=1e-15)
            assert underlying_dual_norm(q, c) == pytest.approx(n, rel=1e-15)
            x = e.primal_align(c)
            assert np.all(np.isfinite(x)) and e.norm(x) <= 1.0 + 1e-15
            assert abs(np.dot(c, x)) == pytest.approx(n, rel=1e-15)
    rng = make_rng(17, "euclidean-normal-range")
    for m in range(1, 6):
        for _ in range(20):
            c = random_complex(rng, m) * 10.0 ** rng.uniform(-100, 100)
            b = BaseNorm.euclidean(m)
            assert b.norm(c) == b.dual_norm(c) == np.linalg.norm(c)
            np.testing.assert_array_equal(b.primal_align(c), np.conj(c) / np.linalg.norm(c))
