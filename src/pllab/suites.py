"""Named verification suites: fixed known-value cases and property sweeps.

Every suite returns a list of JSON-ready case rows, deterministic in the
(seed, budget, trials) arguments, so reports built from them are
byte-reproducible.  The CLI renders these rows; the test suite asserts on
them directly.
"""

from __future__ import annotations

import numpy as np

from .bases import BaseNorm
from .hilbert import diamond_amp, op_norm
from .maps import amplify_bilinear, builtin_certificates, embedding_map
from .quantizations import Quantization, amp_norm, semi_ruan_witness_search, underlying_norm
from .sampling import make_rng, random_complex, random_orthonormal, random_unit
from .tensorlab import l_norm_bracket, pl_norm_bracket

__all__ = [
    "v_example",
    "verify_paper_suite",
    "properties_suite",
    "certificate_sweep",
    "quantization_pool",
]


def v_example(n: int) -> np.ndarray:
    """Coefficient matrix of V = sum_k e_k (p_k (x) p_k) over n-dim factors."""
    V = np.zeros((n, n * n), dtype=complex)
    for k in range(n):
        V[k, k * n + k] = 1.0
    return V


def _row(case: str, passed: bool, **extra) -> dict:
    out = {"case": case, "passed": bool(passed)}
    out.update(extra)
    return out


def _bracket_row(case: str, b, want: float, tolerance: float, **extra) -> dict:
    """Row of a bracket b whose bounds must both lie within tolerance of want."""
    ok = abs(b.lower - want) <= tolerance and abs(b.upper - want) <= tolerance
    return _row(case, ok, expected=want, lower=b.lower, upper=b.upper, tolerance=tolerance, **extra)


# -- fixed known-value suite ----------------------------------------------------

_CERT_PAIRS = 60  # pairs of verify_paper_suite's certificate sweep


def verify_paper_suite(
    n_max: int = 4,
    budget: int = 200,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> list:
    """The fixed verification suite behind the verify-paper command.

    Covers the separation example (pl = n against l = sqrt(n)), the
    minimal-quantization SVD law, the l collapse on injectively quantized
    euclidean factors, the weighted-l1 pair closed form, the L_p embedding
    equality, and a certificate contractivity sweep over _CERT_PAIRS factor pairs.
    """
    rows = []

    for n in range(1, n_max + 1):
        V = v_example(n)
        E = Quantization.hilbert(n)
        F = Quantization.hilbert(n)
        for norm, fn, want in (("pl", pl_norm_bracket, float(n)),
                               ("l", l_norm_bracket, float(np.sqrt(n)))):
            b = fn(E, F, V, budget=budget, seed=seed)
            rows.append(_bracket_row(f"v-{norm}/n={n}", b, want, tolerance,
                                     certificate=b.lower_witness.get("certificate")))

    for k in range(10):
        rng = make_rng(seed, "suite-min-svd", k)
        d = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        r = min(d, m)
        lam = random_complex(rng, r)
        xi = random_orthonormal(rng, d, r)
        xs = random_orthonormal(rng, m, r)
        U = xi @ np.diag(lam) @ xs.T
        got = amp_norm(Quantization.min(BaseNorm.euclidean(m)), U, budget=budget, seed=seed).value
        want = float(np.max(np.abs(lam)))
        rows.append(
            _row(f"min-svd/{k:02d}", abs(got - want) <= 1e-10, expected=want, value=got,
                 tolerance=1e-10)
        )

    for k in range(8):
        rng = make_rng(seed, "suite-l-reshape", k)
        mE = int(rng.integers(1, 4))
        mF = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        U = random_complex(rng, d, mE * mF)
        E = Quantization.min(BaseNorm.euclidean(mE))
        F = Quantization.min(BaseNorm.euclidean(mF))
        b = l_norm_bracket(E, F, U, budget=budget, seed=seed)
        rows.append(_bracket_row(f"l-reshape/{k:02d}", b, float(np.linalg.norm(U, 2)), tolerance))

    for k in range(8):
        rng = make_rng(seed, "suite-l1-pl", k)
        sE = int(rng.integers(1, 5))
        sF = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        wE = rng.uniform(0.5, 2.0, sE)
        wF = rng.uniform(0.5, 2.0, sF)
        U = random_complex(rng, d, sE * sF)
        E = Quantization.lp(1.0, wE)
        F = Quantization.lp(1.0, wF)
        b = pl_norm_bracket(E, F, U, budget=budget, seed=seed)
        want = float(
            sum(
                wE[s] * wF[t] * np.linalg.norm(U[:, s * sF + t])
                for s in range(sE)
                for t in range(sF)
            )
        )
        rows.append(_bracket_row(f"l1-pl/{k:02d}", b, want, tolerance))

    inners = [
        Quantization.hilbert(2),
        Quantization.lp(1.0, np.ones(2)),
        Quantization.min(BaseNorm.euclidean(3)),
    ]
    for k, p in enumerate((1.0, 2.0, np.inf)):
        rng = make_rng(seed, "suite-embed", k)
        weights = rng.uniform(0.5, 2.0, 3)
        F = inners[k % len(inners)]
        r = embedding_map(p, weights, F)
        W = random_complex(rng, 2, 3)
        Uf = random_complex(rng, 2, F.dim)
        lhs = amp_norm(r.target, amplify_bilinear(r, W, Uf), budget=budget, seed=seed).value
        rhs = (
            amp_norm(r.source_left, W, budget=budget, seed=seed).value
            * amp_norm(r.source_right, Uf, budget=budget, seed=seed).value
        )
        rows.append(
            _row(
                f"lp-embed/p={'inf' if np.isinf(p) else int(p)}",
                abs(lhs - rhs) <= tolerance * max(1.0, rhs),
                expected=rhs, value=lhs, tolerance=tolerance,
            )
        )

    sweep_rows, violations = certificate_sweep(
        pairs=_CERT_PAIRS, budget=max(budget // 4, 30), seed=seed, tolerance=tolerance
    )
    rows.append(
        _row(
            "certificate-sweep", not violations, pairs=_CERT_PAIRS,
            violations=len(violations), worst=sweep_rows["worst_excess"],
            tolerance=tolerance,
        )
    )
    return rows


# -- randomized sweeps -----------------------------------------------------------


def quantization_pool() -> list:
    """Small descriptor pool covering every quantization kind."""
    tri = np.array(
        [[1.0, 0.5], [-1.0, -0.5], [0.0, 1.0], [0.0, -1.0], [1.0, -1.0], [-1.0, 1.0]],
        dtype=complex,
    )
    gens = [
        np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    ]
    return [
        Quantization.min(BaseNorm.euclidean(3)),
        Quantization.min(BaseNorm.lp(1.0, weights=[1.0, 2.0, 0.5])),
        Quantization.min(BaseNorm.lp(np.inf, weights=[1.0, 1.0, 1.0])),
        Quantization.min(BaseNorm.polytope(tri)),
        Quantization.max(BaseNorm.lp(1.0, weights=[1.0, 1.5])),
        Quantization.max(BaseNorm.euclidean(2)),
        Quantization.lp(1.0, [1.0, 0.5, 2.0]),
        Quantization.lp(2.0, [1.0, 1.0]),
        Quantization.lp(np.inf, [1.0, 2.0]),
        Quantization.lp(2.0, [1.0, 0.5], inner=Quantization.hilbert(2)),
        Quantization.hilbert(3),
        Quantization.concrete(gens),
        Quantization.tensor_p(BaseNorm.lp(1.0, weights=[1.0, 1.0]), Quantization.hilbert(2)),
        Quantization.tensor_p(BaseNorm.euclidean(2), Quantization.hilbert(2)),
    ]


def properties_suite(trials: int = 10000, seed: int = 0, tolerance: float = 1e-9) -> list:
    """Randomized invariant sweeps: module contractivity, the semi-Ruan
    dichotomy, and the cross property of elementary tensors."""
    pool = quantization_pool()
    rows = []

    violations = 0
    worst = 0.0
    for t in range(trials):
        q = pool[t % len(pool)]
        rng = make_rng(seed, "prop-module", t)
        d = int(rng.integers(1, 4))
        d2 = int(rng.integers(1, 4))
        a = random_complex(rng, d2, d)
        U = random_complex(rng, d, q.dim)
        na = op_norm(a)
        nu = amp_norm(q, U, budget=40, rng=make_rng(seed, "prop-module-n", t))
        nau = amp_norm(q, a @ U, budget=40, rng=make_rng(seed, "prop-module-m", t))
        excess = nau.lower - na * nu.value
        worst = max(worst, excess)
        if excess > tolerance * max(1.0, na * nu.value):
            violations += 1
    rows.append(
        _row("module-contractivity", violations == 0, trials=trials,
             violations=violations, worst_excess=worst, tolerance=tolerance)
    )

    violations = 0
    worst = 0.0
    for t in range(trials):
        q = pool[t % len(pool)]
        rng = make_rng(seed, "prop-cross", t)
        xi = random_unit(rng, int(rng.integers(1, 4)))
        x = random_complex(rng, q.dim)
        if not np.any(x):
            continue
        U = np.multiply.outer(xi, x)
        nv = amp_norm(q, U, budget=40, rng=make_rng(seed, "prop-cross-n", t))
        prod = underlying_norm(q, x)  # ||xi|| = 1
        err = max(abs(nv.value - prod), prod - 1e-10 - nv.lower if not nv.exact else 0.0)
        rel = err / max(1.0, prod)
        worst = max(worst, rel)
        if rel > 1e-10:
            violations += 1
    rows.append(
        _row("cross-norm", violations == 0, trials=trials, violations=violations,
             worst_error=worst, tolerance=1e-10)
    )

    passing = [
        ("min-euclidean", Quantization.min(BaseNorm.euclidean(3))),
        ("min-linf", Quantization.min(BaseNorm.lp(np.inf, weights=[1.0, 1.0, 1.0]))),
        ("hilbert", Quantization.hilbert(3)),
        ("lp2", Quantization.lp(2.0, [1.0, 0.5, 2.0])),
        ("lp4", Quantization.lp(4.0, [1.0, 1.0])),
    ]
    per_kind = max(trials // len(passing), 1)
    for name, q in passing:
        w = semi_ruan_witness_search(q, trials=per_kind, seed=seed, tolerance=tolerance)
        rows.append(
            _row(f"semi-ruan-pass/{name}", w is None, trials=per_kind,
                 witness_found=w is not None, tolerance=tolerance)
        )
    # at least the q.dim ** 2 structured trials, the known counterexample among them
    q = Quantization.lp(1.0, [1.0, 1.0])
    lp1_trials = max(trials, q.dim**2)
    w = semi_ruan_witness_search(q, trials=lp1_trials, seed=seed, tolerance=tolerance)
    rows.append(
        _row(
            "semi-ruan-violation/lp1", w is not None, trials=lp1_trials,
            witness_found=w is not None,
            excess=(w["excess"] if w is not None else None), tolerance=tolerance,
        )
    )
    return rows


def _sweep_pairs() -> list:
    return [
        (Quantization.hilbert(2), Quantization.hilbert(2)),
        (Quantization.hilbert(3), Quantization.hilbert(3)),
        (
            Quantization.min(BaseNorm.euclidean(2)),
            Quantization.min(BaseNorm.euclidean(3)),
        ),
        (Quantization.min(BaseNorm.euclidean(2)), Quantization.hilbert(2)),
        (Quantization.max(BaseNorm.lp(1.0, weights=[1.0, 2.0])), Quantization.hilbert(2)),
        (Quantization.max(BaseNorm.euclidean(2)), Quantization.lp(2.0, [1.0, 1.0])),
        (Quantization.lp(1.0, [1.0, 0.5, 2.0]), Quantization.hilbert(2)),
        (Quantization.lp(1.0, [1.0, 1.0]), Quantization.lp(1.0, [0.5, 2.0])),
        (
            Quantization.lp(1.0, [1.0, 1.0]),
            Quantization.min(BaseNorm.lp(np.inf, weights=[1.0, 1.0])),
        ),
        (
            Quantization.min(BaseNorm.lp(1.0, weights=[1.0, 1.0, 1.0])),
            Quantization.min(BaseNorm.euclidean(2)),
        ),
    ]


def certificate_sweep(
    pairs: int = 1000, budget: int = 60, seed: int = 0, tolerance: float = 1e-9
) -> tuple:
    """Contractivity of every applicable catalog certificate on random pairs.

    For each sampled (u, v) and each certificate, the certified lower bound
    of the image under the certificate's target never exceeds the certified
    product bound ||u|| ||v|| (plus tolerance).  Returns (summary, violations).
    """
    combos = _sweep_pairs()
    worst = -np.inf
    checked = 0
    violations = []
    for t in range(pairs):
        E, F = combos[t % len(combos)]
        rng = make_rng(seed, "cert-sweep", t)
        du = int(rng.integers(1, 3))
        dv = int(rng.integers(1, 3))
        u = random_complex(rng, du, E.dim)
        v = random_complex(rng, dv, F.dim)
        nu = amp_norm(E, u, budget=budget, rng=make_rng(seed, "cert-sweep-u", t)).value
        nv = amp_norm(F, v, budget=budget, rng=make_rng(seed, "cert-sweep-v", t)).value
        W = diamond_amp(u, v)
        for cert in builtin_certificates(E, F):
            got, _ = cert.evaluate_lower(W, budget=budget, seed=seed)
            excess = got - cert.bound * nu * nv
            worst = max(worst, excess)
            checked += 1
            if excess > tolerance * max(1.0, cert.bound * nu * nv):
                violations.append(
                    {"pair": t, "certificate": cert.name, "excess": excess}
                )
    summary = {
        "pairs": pairs,
        "checked": checked,
        "worst_excess": worst,
        "violations": len(violations),
    }
    return summary, violations
