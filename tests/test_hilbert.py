"""Diamond calculus on truncations: product laws, pairings, coefficient arrays."""

import numpy as np
import pytest

from pllab import (
    PairingMap,
    coeffs_of,
    diamond_amp,
    diamond_op,
    diamond_vec,
    module_action,
    op_norm,
    rank_one,
    vec_diamond_amp,
)
from pllab.hilbert import frobenius_norm
from pllab.sampling import make_rng, random_complex


def test_diamond_vec_norm_multiplicative():
    rng = make_rng(11, "dvec")
    for _ in range(50):
        xi = random_complex(rng, int(rng.integers(1, 6)))
        eta = random_complex(rng, int(rng.integers(1, 6)))
        d = diamond_vec(xi, eta)
        assert d.shape == (xi.size * eta.size,)
        assert np.linalg.norm(d) == pytest.approx(
            np.linalg.norm(xi) * np.linalg.norm(eta), abs=1e-12
        )


def test_diamond_vec_entries_row_major():
    xi = np.array([1.0, 2.0j])
    eta = np.array([3.0, -1.0, 0.5j])
    d = diamond_vec(xi, eta)
    # (i, j) -> i*3 + j
    assert d[0 * 3 + 2] == pytest.approx(1.0 * 0.5j)
    assert d[1 * 3 + 0] == pytest.approx(2.0j * 3.0)


def test_diamond_op_intertwines_diamond_vec():
    """(a <> b)(xi <> eta) = a(xi) <> b(eta), in both pairing schemes."""
    rng = make_rng(12, "dop")
    for scheme in ("row-major", "column-major"):
        pm = PairingMap(scheme)
        a = random_complex(rng, 3, 2)
        b = random_complex(rng, 2, 4)
        xi = random_complex(rng, 2)
        eta = random_complex(rng, 4)
        lhs = diamond_op(a, b, pm) @ diamond_vec(xi, eta, pm)
        rhs = diamond_vec(a @ xi, b @ eta, pm)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_diamond_op_norm_multiplicative():
    rng = make_rng(13, "dopn")
    a = random_complex(rng, 3, 3)
    b = random_complex(rng, 2, 2)
    assert op_norm(diamond_op(a, b)) == pytest.approx(op_norm(a) * op_norm(b), rel=1e-12)


def test_diamond_amp_index_law():
    rng = make_rng(14, "damp")
    U = random_complex(rng, 2, 3)
    V = random_complex(rng, 3, 2)
    for scheme in ("row-major", "column-major"):
        pm = PairingMap(scheme)
        W = diamond_amp(U, V, pm)
        flat = pm.flat(2, 3)
        for i in range(2):
            for k in range(3):
                for jE in range(3):
                    for jF in range(2):
                        assert W[flat[i, k], jE * 2 + jF] == pytest.approx(
                            U[i, jE] * V[k, jF]
                        )


def test_pairing_schemes_differ_by_row_permutation():
    rng = make_rng(15, "perm")
    U = random_complex(rng, 2, 2)
    V = random_complex(rng, 3, 1)
    row = diamond_amp(U, V, PairingMap("row-major"))
    col = diamond_amp(U, V, PairingMap("column-major"))
    perm = PairingMap("column-major").permutation(2, 3)
    np.testing.assert_allclose(col, row[perm], atol=0)
    # a permutation of H rows preserves the Frobenius data exactly
    assert np.linalg.norm(col) == np.linalg.norm(row)


def test_vec_diamond_amp_matches_diamond_amp_on_singletons():
    rng = make_rng(16, "vda")
    xi = random_complex(rng, 3)
    U = random_complex(rng, 2, 4)
    lhs = vec_diamond_amp(xi, U)
    rhs = diamond_amp(xi[:, None], U)  # xi as an element over a 1-dim base
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_op_norm_against_power_iteration_oracle():
    # frozen via an independent power-iteration oracle on A^T A
    A = np.array(
        [[2.0, -1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 2.0, -2.0], [1.0, 0.0, 1.0]]
    )
    assert op_norm(A) == pytest.approx(3.7677781811973263, abs=1e-10)


def test_op_norm_dominates_sphere_sampling():
    rng = make_rng(17, "sphere")
    A = random_complex(rng, 4, 3)
    n = op_norm(A)
    best = 0.0
    for _ in range(2000):
        x = random_complex(rng, 3)
        x /= np.linalg.norm(x)
        best = max(best, float(np.linalg.norm(A @ x)))
    assert best <= n + 1e-12
    assert best >= 0.9 * n  # sampling gets close in 3 dims


def test_module_action_columnwise_and_associative():
    rng = make_rng(18, "mod")
    a = random_complex(rng, 4, 3)
    b = random_complex(rng, 3, 2)
    U = random_complex(rng, 2, 5)
    np.testing.assert_allclose(coeffs_of(U), U)
    np.testing.assert_allclose(module_action(a, module_action(b, U)),
                               module_action(a @ b, U), atol=1e-12)
    xi = random_complex(rng, 2)
    x = random_complex(rng, 5)
    np.testing.assert_allclose(
        module_action(a @ b, np.multiply.outer(xi, x)),
        np.multiply.outer(a @ (b @ xi), x),
        atol=1e-12,
    )


def test_rank_one_action():
    x = np.array([1.0, 2.0j])
    y = np.array([0.5, -1.0])
    z = np.array([3.0, 1.0j])
    out = rank_one(x, y) @ z
    np.testing.assert_allclose(out, np.vdot(y, z) * x, atol=1e-12)


@pytest.mark.parametrize("dtype", [complex, float, int])
@pytest.mark.parametrize("layout", ["1-d", "2-d", "column-slice", "transposed"])
def test_frobenius_norm_is_bit_equal_to_numpy(dtype, layout):
    """One l2 formula: the first try of frobenius_norm is numpy's own sum."""
    rng = make_rng(40, "frobenius-bits", layout)
    for _ in range(50):
        A = random_complex(rng, 5, 7) * 100.0
        A = A.astype(dtype) if dtype is complex else A.real.astype(dtype)
        a = {"1-d": A[0], "2-d": A, "column-slice": A[:, 2:6], "transposed": A.T}[layout]
        assert frobenius_norm(a) == float(np.linalg.norm(a))
