"""Tensor norm brackets: representations, orthogonalization, pl/l comparison.

The brackets of the thirteen benchmark factor pairs are pinned in
tests/data/bracket_pins.json.  ``PYTHONPATH=src python tests/test_tensorlab.py
[PAIR ...]`` rewrites the rows of the given pairs (all pairs when none are
given); run it only when those brackets are meant to change.
"""

import json
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pllab import (
    BaseNorm,
    LRepresentation,
    NormBracket,
    PairingMap,
    PLRepresentation,
    Quantization,
    amp_norm,
    compare_pl_l,
    diamond_amp,
    l_norm_bracket,
    orthogonalize_representation,
    pl_norm_bracket,
)
from pllab.projective import RECON_TOL
from pllab.sampling import make_rng, random_complex
from pllab.suites import v_example
from pllab.wire import matrix_from_json

BRACKET_PINS = pathlib.Path(__file__).resolve().parent / "data" / "bracket_pins.json"


def hilbert_pair(n):
    return Quantization.hilbert(n), Quantization.hilbert(n)


def test_separation_example_exact_values():
    for n in (2, 3):
        E, F = hilbert_pair(n)
        V = v_example(n)
        pl = pl_norm_bracket(E, F, V, budget=150, seed=0)
        assert pl.lower == pytest.approx(n, abs=1e-9)
        assert pl.upper == pytest.approx(n, abs=1e-9)
        l = l_norm_bracket(E, F, V, budget=150, seed=0)
        assert l.lower == pytest.approx(np.sqrt(n), abs=1e-9)
        assert l.upper == pytest.approx(np.sqrt(n), abs=1e-9)


def test_pl_representation_validates_and_reconstructs():
    rng = make_rng(61, "plrep")
    E, F = hilbert_pair(2)
    u = random_complex(rng, 1, 2)
    v = random_complex(rng, 1, 2)
    U = diamond_amp(u, v)
    rep = PLRepresentation(
        ((np.eye(1, dtype=complex), u, v),), U, E, F, PairingMap(), label="elementary"
    )
    np.testing.assert_allclose(rep.reconstruct(), U, atol=1e-12)
    # the certified value of an elementary representation is the norm product
    assert rep.value() == pytest.approx(
        np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12
    )
    with pytest.raises(ValueError):
        PLRepresentation(((np.eye(1), u, v),), 2 * U, E, F, PairingMap())
    with pytest.raises(ValueError):
        # block truncation does not match the term truncations
        PLRepresentation(((np.ones((1, 3)), u, v),), U, E, F, PairingMap())


def _rep_parts(d):
    """Hilbert(2) factors, u (d x 2), v (1 x 2) and their diamond U."""
    rng = make_rng(63, "rep-errors", d)
    u, v = random_complex(rng, d, 2), random_complex(rng, 1, 2)
    return (*hilbert_pair(2), u, v, diamond_amp(u, v))


@pytest.mark.parametrize("match, build", [
    ("2-d matrix", lambda E, F, u, v, U: (((np.ones(1), u, v),), U)),
    ("diamond lives in", lambda E, F, u, v, U: (((np.ones((1, 3)), u, v),), U)),
    ("target has base dimension", lambda E, F, u, v, U: (((np.eye(1), u, v),), U[:, :3])),
    ("target truncation", lambda E, F, u, v, U: (((np.ones((2, 1)), u, v),), U)),
    ("factor spaces", lambda E, F, u, v, U: (((np.eye(1), np.ones((1, 3)), v),), U)),
    ("does not reconstruct", lambda E, F, u, v, U: (((np.eye(1), u, v),), 2 * U)),
])
def test_pl_representation_rejects_each_malformed_input(match, build):
    E, F, u, v, U = _rep_parts(1)
    terms, target = build(E, F, u, v, U)
    with pytest.raises(ValueError, match=match):
        PLRepresentation(terms, target, E, F, PairingMap())


# value(budget, seed) of the pl and l witnesses of _drawing_witnesses(), whose
# factor norms run the projective refinement on the generators' streams
_REP_VALUES = {(0, 60): (11.055877572126352, 11.05875303331666),
               (2, 20): (11.068026546317075, 11.077427299220753)}


def _drawing_witnesses():
    """pl and l witnesses over tensor_p(lp(1.5), hilbert(2)) x max(lp(1.5)),
    whose factor norms draw from their generators."""
    E = Quantization.tensor_p(BaseNorm.lp(1.5, dim=2), Quantization.hilbert(2))
    F = Quantization.max(BaseNorm.lp(1.5, dim=2))
    U = random_complex(make_rng(71, "rep-streams"), 2, E.dim * F.dim)
    return pl_norm_bracket(E, F, U, budget=20).upper_witness, l_norm_bracket(E, F, U, budget=20).upper_witness


@pytest.mark.parametrize("seed, budget", sorted(_REP_VALUES))
def test_representation_values_keep_their_streams(seed, budget):
    """The re-check value of each witness draws on the per-term streams
    (seed, "plrep" or "lrep", k), u valued before v; pinned."""
    pl, l = _drawing_witnesses()
    got = (pl.value(budget, seed), l.value(budget, seed))
    assert got == pytest.approx(_REP_VALUES[seed, budget], rel=1e-12)


def test_empty_pl_representation_orthogonalizes_to_an_empty_l_representation():
    E, F = hilbert_pair(2)
    rep = PLRepresentation((), np.zeros((3, 4)), E, F, label="zero")
    lrep = orthogonalize_representation(rep)
    assert lrep.terms == () and lrep.block.shape == (3, 0)
    assert lrep.label == "zero+orthogonalized"
    assert rep.value() == 0.0 and lrep.value() == 0.0
    assert lrep.residual() == 0.0


@pytest.mark.parametrize("bracket", [pl_norm_bracket, l_norm_bracket, compare_pl_l])
def test_brackets_reject_an_element_of_another_width(bracket):
    E, F = hilbert_pair(2)
    with pytest.raises(ValueError, match="base dimension 3, factors give 2\\*2"):
        bracket(E, F, np.ones((1, 3)))


@pytest.mark.parametrize("match, build", [
    ("one support range per term", lambda u, v, U: (np.eye(2), ((u, v),), ((0, 2), (0, 0)), U)),
    ("target base dimension", lambda u, v, U: (np.eye(2), ((u, v),), ((0, 2),), U[:, :3])),
    ("common embedded truncations",
     lambda u, v, U: (np.eye(2), ((u * [[1], [0]], v), (np.zeros((3, 2)), v)), ((0, 1), (1, 1)), U)),
    ("outside the embedded truncation", lambda u, v, U: (np.eye(2), ((u, v),), ((1, 2),), U)),
    ("overlap", lambda u, v, U: (np.eye(2), ((u * [[1], [0]], v), (u, v)), ((0, 1), (0, 2)), U)),
    ("not supported on its block", lambda u, v, U: (np.eye(2), ((u, v),), ((0, 1),), U)),
    ("block shape", lambda u, v, U: (np.eye(3), ((u, v),), ((0, 2),), U)),
    ("does not reconstruct", lambda u, v, U: (np.eye(2), ((u, v),), ((0, 2),), 2 * U)),
])
def test_l_representation_rejects_each_malformed_input(match, build):
    E, F, u, v, U = _rep_parts(2)
    block, terms, supports, target = build(u, v, U)
    with pytest.raises(ValueError, match=match):
        LRepresentation(block, terms, supports, target, E, F, PairingMap())


def test_l_representation_requires_disjoint_supports():
    E, F = hilbert_pair(2)
    rng = make_rng(62, "lrep")
    u = random_complex(rng, 2, 2)
    v = random_complex(rng, 1, 2)
    U = diamond_amp(u, v)
    block = np.eye(2, dtype=complex)
    ok = LRepresentation(block, ((u, v),), ((0, 2),), U, E, F, PairingMap())
    np.testing.assert_allclose(ok.reconstruct(), U, atol=1e-12)
    u1 = np.vstack([random_complex(rng, 2, 2), np.zeros((1, 2))])
    u2 = np.vstack([np.zeros((1, 2)), random_complex(rng, 2, 2)])
    with pytest.raises(ValueError, match="overlap"):
        LRepresentation(
            np.zeros((2, 3), dtype=complex),
            ((u1, v), (u2, v)),
            ((0, 2), (1, 2)),  # rows 1 is claimed twice
            np.zeros((2, 4), dtype=complex),
            E,
            F,
            PairingMap(),
        )


def test_bracket_witnesses_reproduce_their_bounds():
    """Re-evaluating the returned representation recovers the reported upper."""
    rng = make_rng(63, "wit")
    E, F = hilbert_pair(2)
    U = random_complex(rng, 2, 4)
    pl = pl_norm_bracket(E, F, U, budget=100, seed=4)
    rep_val = pl.upper_witness.value(budget=100, seed=4)
    assert rep_val == pytest.approx(pl.upper, rel=1e-9)
    l = l_norm_bracket(E, F, U, budget=100, seed=4)
    lrep_val = l.upper_witness.value(budget=100, seed=4)
    assert lrep_val == pytest.approx(l.upper, rel=1e-9)
    assert l.upper_witness.label.endswith("+orthogonalized")


def test_orthogonalization_preserves_reconstruction():
    rng = make_rng(64, "orth")
    E, F = hilbert_pair(3)
    U = random_complex(rng, 2, 9)
    pl = pl_norm_bracket(E, F, U, budget=80, seed=0)
    lrep = orthogonalize_representation(pl.upper_witness)
    np.testing.assert_allclose(lrep.reconstruct(), U, atol=1e-9)
    offs = [s[0] for s in lrep.supports]
    sizes = [s[1] for s in lrep.supports]
    spans = sorted(zip(offs, sizes))
    for (o1, s1), (o2, _) in zip(spans, spans[1:]):
        assert o1 + s1 <= o2  # supports are consecutive disjoint blocks


def test_norm_bracket_rejects_crossed_bounds():
    E, F = hilbert_pair(1)
    rep = PLRepresentation((), np.zeros((1, 1)), E, F, PairingMap(), label="zero")
    with pytest.raises(AssertionError):
        NormBracket(2.0, 1.0, "pl", {}, rep, {})


def test_norm_bracket_gap_flag():
    E, F = hilbert_pair(1)
    rep = PLRepresentation((), np.zeros((1, 1)), E, F, PairingMap(), label="zero")
    tight = NormBracket(1.0, 1.0 + 1e-12, "pl", {}, rep, {})
    assert not tight.has_gap
    open_ = NormBracket(1.0, 1.1, "pl", {}, rep, {})
    assert open_.has_gap
    assert open_.gap == pytest.approx(0.1)
    assert open_.to_dict(include_representation=False)["gap"] is True


def test_compare_pl_l_checks_and_separation():
    E, F = hilbert_pair(3)
    report = compare_pl_l(E, F, v_example(3), budget=150, seed=0)
    assert all(c["passed"] for c in report["checks"])
    assert report["separation_ratio"] == pytest.approx(np.sqrt(3), abs=1e-8)
    assert report["pl"]["lower"] >= report["l"]["lower"] - 1e-9


def test_compare_pl_l_random_elements():
    rng = make_rng(65, "cmprand")
    E = Quantization.min(BaseNorm.euclidean(2))
    F = Quantization.hilbert(2)
    for t in range(5):
        U = random_complex(rng, 2, 4)
        report = compare_pl_l(E, F, U, budget=80, seed=t)
        assert all(c["passed"] for c in report["checks"])


def test_scale_covariance_of_brackets():
    rng = make_rng(66, "scale")
    E, F = hilbert_pair(2)
    U = random_complex(rng, 2, 4)
    a = pl_norm_bracket(E, F, U, budget=80, seed=1)
    b = pl_norm_bracket(E, F, 3.5 * U, budget=80, seed=1)
    assert b.lower == pytest.approx(3.5 * a.lower, rel=1e-12)
    assert b.upper == pytest.approx(3.5 * a.upper, rel=1e-12)


def test_pairing_choice_does_not_move_values():
    E, F = hilbert_pair(2)
    V = v_example(2)
    for fn in (pl_norm_bracket, l_norm_bracket):
        row = fn(E, F, V, budget=100, seed=0, pairing=PairingMap("row-major"))
        col = fn(E, F, V, budget=100, seed=0, pairing=PairingMap("column-major"))
        assert row.lower == pytest.approx(col.lower, abs=1e-10)
        assert row.upper == pytest.approx(col.upper, abs=1e-10)


def test_zero_element_brackets():
    E, F = hilbert_pair(2)
    Z = np.zeros((2, 4))
    for fn in (pl_norm_bracket, l_norm_bracket):
        b = fn(E, F, Z)
        assert b.lower == 0.0 and b.upper == 0.0
        assert not b.has_gap


def test_explicit_empty_certificate_pool():
    E, F = hilbert_pair(2)
    b = pl_norm_bracket(E, F, v_example(2), budget=60, seed=0, certificates=[])
    assert b.lower == 0.0
    assert b.upper == pytest.approx(2.0, abs=1e-9)


def test_l_pool_is_semi_ruan_subset():
    from pllab.maps import builtin_certificates

    E, F = hilbert_pair(2)
    b = l_norm_bracket(E, F, v_example(2), budget=60, seed=0)
    pool = set(b.details["pool"])
    catalog = {c.name for c in builtin_certificates(E, F)}
    assert pool <= catalog
    # the l1 coordinate multiplication target fails semi-Ruan, so the pl
    # catalog keeps it while the l pool drops it
    assert "coordinate-multiplication-l1" in catalog
    assert "coordinate-multiplication-l1" not in pool
    assert "coordinate-multiplication-l2" in pool


def _factor_pairs():
    """The thirteen factor pairs of the bracket benchmark, all six kinds."""
    H = Quantization.hilbert
    euc = BaseNorm.euclidean
    l1 = lambda w: BaseNorm.lp(1.0, weights=w)  # noqa: E731
    pauli = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]])]
    return [
        (H(2), H(2)),
        (H(3), H(3)),
        (Quantization.min(euc(2)), Quantization.min(euc(3))),
        (Quantization.min(euc(2)), H(2)),
        (Quantization.max(l1([1.0, 2.0])), H(2)),
        (Quantization.max(euc(2)), Quantization.lp(2.0, [1.0, 1.0])),
        (Quantization.lp(1.0, [1.0, 0.5, 2.0]), H(2)),
        (Quantization.lp(1.0, [1.0, 1.0]), Quantization.lp(1.0, [0.5, 2.0])),
        (Quantization.lp(1.0, [1.0, 1.0]), Quantization.min(BaseNorm.lp(np.inf, weights=[1.0, 1.0]))),
        (Quantization.min(l1([1.0, 1.0, 1.0])), Quantization.min(euc(2))),
        (Quantization.max(euc(3)), Quantization.lp(2.0, [1.0, 0.5], inner=H(2))),
        (Quantization.tensor_p(euc(2), H(2)), H(2)),
        (Quantization.concrete(pauli), Quantization.min(l1([1.0, 1.0, 1.0]))),
    ]


def _pinned_brackets(i):
    """pl and l brackets of factor pair i at d = 2, seed 0."""
    E, F = _factor_pairs()[i]
    U = random_complex(make_rng(0, "pinned", i), 2, E.dim * F.dim)
    return pl_norm_bracket(E, F, U, seed=0), l_norm_bracket(E, F, U, seed=0)


def _record_bracket_pins(pairs):
    """Rewrite the pinned rows of the given pairs from the current code."""
    rows = json.loads(BRACKET_PINS.read_text())
    for i in pairs:
        pl, l = _pinned_brackets(i)
        rows[i] = {"pair": i, "pl": [pl.lower, pl.upper], "l": [l.lower, l.upper]}
    BRACKET_PINS.write_text(json.dumps(rows, indent=1) + "\n")


@pytest.mark.parametrize("i", range(13))
def test_brackets_match_pinned_values(i):
    row = json.loads(BRACKET_PINS.read_text())[i]
    pl, l = _pinned_brackets(i)
    got = (pl.lower, pl.upper, l.lower, l.upper)
    assert got == pytest.approx((*row["pl"], *row["l"]), rel=1e-12)


# (pl lower, pl upper, l lower, l upper) of pairs 5 and 10, max(euclidean) x
# lp(2, ...), while their tensor_p inner was evaluated as an opaque norm: the
# pl brackets stayed open, and the l lower bounds came from the
# max-tensor-identity certificate, whose target is not semi-Ruan
_OPAQUE_INNER_ROWS = {
    5: (4.639657000642066, 6.8508916691990285, 4.639657000642066, 7.268559120353242),
    10: (3.6364386280059158, 9.500203304476765, 3.6364386280059158, 9.587453239827463),
}


@pytest.mark.parametrize("i", [5, 10])
def test_weighted_frobenius_pairs_close_their_pl_brackets(i):
    old_lower, old_upper = _OPAQUE_INNER_ROWS[i][:2]
    pl, _ = _pinned_brackets(i)
    assert pl.lower >= old_lower * (1 - 1e-12)
    assert pl.upper <= old_upper * (1 + 1e-12)
    assert pl.lower == pytest.approx(pl.upper, rel=1e-12, abs=0)


@pytest.mark.parametrize("i", [5, 10])
def test_l_pool_drops_the_non_semi_ruan_max_tensor_identity(i):
    E, F = _factor_pairs()[i]
    U = random_complex(make_rng(0, "pinned", i), 2, E.dim * F.dim)
    l = l_norm_bracket(E, F, U, seed=0)
    report = compare_pl_l(E, F, U, seed=0)
    assert "max-tensor-identity" in report["pl"]["details"]["certificates"]
    assert "max-tensor-identity" not in l.details["pool"]
    assert "max-tensor-identity" not in report["l"]["details"]["pool"]


def _homogeneity_cases():
    rng = make_rng(67, "homogeneity")
    pairs = _factor_pairs()
    return [
        (*hilbert_pair(3), v_example(3)),
        (*pairs[7], random_complex(rng, 2, 4)),  # weighted l1: pl = weighted column sum
        (*pairs[2], random_complex(rng, 2, 6)),  # min euclidean: l = operator norm
    ]


@pytest.mark.parametrize("case", range(3))
@pytest.mark.parametrize("fn", [pl_norm_bracket, l_norm_bracket], ids=["pl", "l"])
def test_brackets_are_homogeneous_at_extreme_scales(fn, case):
    E, F, U = _homogeneity_cases()[case]
    ref = fn(E, F, U, budget=100, seed=2)
    for s in (1e-170, 1e-150, 1e-6, 1e9, 1e12, 1e15, 1e150, 1e200):
        b = fn(E, F, s * U, budget=100, seed=2)
        assert b.lower <= b.upper
        assert b.lower == pytest.approx(s * ref.lower, rel=1e-12, abs=0)
        assert b.upper == pytest.approx(s * ref.upper, rel=1e-12, abs=0)
        assert b.upper_witness.residual() < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_elements_raise_value_error(bad):
    E, F = hilbert_pair(2)
    U = np.ones((2, 4), dtype=complex)
    U[1, 2] = bad
    for fn in (pl_norm_bracket, l_norm_bracket, compare_pl_l):
        with pytest.raises(ValueError, match="non-finite"):
            fn(E, F, U)
    with pytest.raises(ValueError, match="non-finite"):
        amp_norm(E, U[:, 2:])


_NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(range(13)), st.integers(1, 3), st.data())
def test_non_finite_entries_raise_value_error_anywhere(i, d, data):
    """A NaN or inf in the real or the imaginary part of any entry."""
    E, F = _factor_pairs()[i]
    U = random_complex(make_rng(0, "non-finite", i, d), d, E.dim * F.dim)
    for _ in range(data.draw(st.integers(1, 3))):
        row, col = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, E.dim * F.dim - 1))
        bad = data.draw(_NON_FINITE)
        U[row, col] = complex(bad, U[row, col].imag) if data.draw(st.booleans()) else complex(U[row, col].real, bad)
    for fn in (pl_norm_bracket, l_norm_bracket, compare_pl_l):
        with pytest.raises(ValueError, match="non-finite"):
            fn(E, F, U, budget=20)
    # the same entries as elements over each factor (the two unfoldings of U)
    T = U.reshape(d, E.dim, F.dim)
    for q, V in ((E, T.transpose(0, 2, 1).reshape(-1, E.dim)), (F, T.reshape(-1, F.dim))):
        with pytest.raises(ValueError, match="non-finite"):
            amp_norm(q, V, budget=20)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.data())
def test_non_finite_entries_of_real_restricted_elements_raise_the_non_finite_error(d, data):
    """Finiteness is checked before realness: a non-finite imaginary part of
    an otherwise real element is a non-finite entry, not a complex one."""
    q = Quantization.min(BaseNorm.lp(1.0, dim=2, real=True))
    U = make_rng(0, "non-finite-real", d).standard_normal((d, q.dim)).astype(complex)
    row, col = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, q.dim - 1))
    bad = data.draw(_NON_FINITE)
    U[row, col] = complex(U[row, col].real, bad) if data.draw(st.booleans()) else complex(bad, 0.0)
    with pytest.raises(ValueError, match="non-finite"):
        amp_norm(q, U, budget=20)


def test_real_restricted_bases_construct_only_under_min_and_lp():
    """The projective searches of max and tensor_p run on complex data, so a
    real-restricted base or inner is rejected there and kept under min."""
    real = BaseNorm.lp(1.0, dim=2, real=True)
    for build in (
        lambda: Quantization.max(BaseNorm.euclidean(3, real=True)),
        lambda: Quantization.tensor_p(BaseNorm.lp(2.0, dim=2, real=True), Quantization.hilbert(2)),
        lambda: Quantization.tensor_p(BaseNorm.euclidean(2), Quantization.min(real)),
    ):
        with pytest.raises(ValueError, match="real-restricted"):
            build()
    assert Quantization.lp(2.0, [1.0, 1.0], inner=Quantization.min(real)).real


@pytest.mark.parametrize("fn", [pl_norm_bracket, l_norm_bracket, compare_pl_l])
def test_brackets_reject_real_restricted_factors(fn):
    E = Quantization.min(BaseNorm.lp(1.0, weights=[1.0, 1.0], real=True))
    U = np.array([[1.0, 2.0, 0.5, -1.0]])
    for pair in ((E, Quantization.hilbert(2)), (Quantization.hilbert(2), E)):
        with pytest.raises(ValueError, match="real-restricted"):
            fn(*pair, U, budget=20)


@pytest.mark.parametrize("i", range(13))
def test_compare_brackets_equal_standalone_brackets(i):
    E, F = _factor_pairs()[i]
    U = random_complex(make_rng(0, "pinned", i), 2, E.dim * F.dim)
    report = compare_pl_l(E, F, U, seed=0)
    assert report["pl"] == pl_norm_bracket(E, F, U, seed=0).to_dict(False)
    assert report["l"] == l_norm_bracket(E, F, U, seed=0).to_dict(False)


def test_compare_builds_families_once_and_evaluates_each_certificate_once(monkeypatch):
    from pllab import tensorlab
    from pllab.maps import Certificate, builtin_certificates

    evaluated, builds = [], []
    evaluate, families = Certificate.evaluate_lower, tensorlab._pl_families

    def counted_evaluate(self, *args, **kwargs):
        evaluated.append(self.name)
        return evaluate(self, *args, **kwargs)

    def counted_families(*args):
        builds.append(args)
        return families(*args)

    monkeypatch.setattr(Certificate, "evaluate_lower", counted_evaluate)
    monkeypatch.setattr(tensorlab, "_pl_families", counted_families)
    E, F = hilbert_pair(2)
    report = compare_pl_l(E, F, v_example(2), budget=60, seed=0)
    catalog = [c.name for c in builtin_certificates(E, F)]
    assert sorted(evaluated) == sorted(catalog)
    assert len(builds) == 1
    # the l pool is a proper part of the catalog, and its rows come from the same pass
    assert set(report["l"]["details"]["pool"]) < set(catalog)
    for name, val in report["l"]["details"]["certificates"].items():
        assert val == report["pl"]["details"]["certificates"][name]


_IDENTIFICATIONS = ("max-tensor-identity", "l1-reshape", "max-tensor-identity-right", "l1-reshape-right")


@pytest.mark.parametrize("i, swapped", [(4, False), (5, False), (7, False), (4, True)])
def test_a_pl_bracket_computes_each_identification_once(monkeypatch, i, swapped):
    """One tensor_p_bracket of the whole element per projective side, whose
    lower is the identification row: no certificate evaluates one again."""
    from pllab import quantizations, tensorlab
    from pllab.maps import Certificate

    E, F = _factor_pairs()[i]
    U = random_complex(make_rng(0, "pinned", i), 2, E.dim * F.dim)
    if swapped:
        E, F, U = F, E, tensorlab._swap(U, E.dim, F.dim)
    whole, evaluated = [], []
    bracket, evaluate = quantizations.tensor_p_bracket, Certificate.evaluate_lower

    def counted_bracket(base, inner, W, *args):
        if W.shape[1] == E.dim * F.dim:
            whole.append(inner.to_dict())
        return bracket(base, inner, W, *args)

    def counted_evaluate(self, *args, **kwargs):
        evaluated.append(self.name)
        return evaluate(self, *args, **kwargs)

    for mod in (quantizations, tensorlab):
        monkeypatch.setattr(mod, "tensor_p_bracket", counted_bracket)
    monkeypatch.setattr(Certificate, "evaluate_lower", counted_evaluate)
    pl = pl_norm_bracket(E, F, U, seed=0)
    assert whole == [Q.to_dict() for P, Q in ((E, F), (F, E)) if P.projective_base is not None]
    assert len(whole) == sum(name in pl.details["certificates"] for name in _IDENTIFICATIONS)
    assert evaluated and not set(evaluated) & set(_IDENTIFICATIONS)


def _hilbert_embedding_copy(bound):
    """The ROADMAP repro of a wrong bound: hilbert-tensor-embedding on hilbert(2)^2, whose map has
    lb-norm 1, given another bound, and a unit element from default_rng(0)."""
    from dataclasses import replace

    from pllab.maps import builtin_certificates

    E, F = hilbert_pair(2)
    cert = next(c for c in builtin_certificates(E, F) if c.name == "hilbert-tensor-embedding")
    rng = np.random.default_rng(0)
    U = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    return E, F, U / np.linalg.norm(U), replace(cert, bound=bound)


@pytest.mark.parametrize("bound", [0.95, 0.7])
def test_a_falsified_certificate_bound_is_refused_at_admission(bound):
    """Below the map's lb-norm the bound is refused before any lower is
    evaluated; at 0.7 the wrong lower passed the upper, an AssertionError."""
    E, F, U, cert = _hilbert_embedding_copy(bound)
    for fn in (pl_norm_bracket, l_norm_bracket):
        with pytest.raises(ValueError, match="'hilbert-tensor-embedding'.*above its bound.*witness"):
            fn(E, F, U, certificates=[cert])
    assert cert.lb_estimate.lower > bound


def test_catalog_bounds_pass_admission_once_per_certificate(monkeypatch):
    """Every catalog entry of the benchmark pairs survives its lb_estimate,
    which runs one lb search per certificate object, however many brackets
    take it; the functional pair has none."""
    from pllab import maps

    searched = []
    search = maps.lb_norm_lower
    monkeypatch.setattr(maps, "lb_norm_lower", lambda r, *a, **k: searched.append(id(r)) or search(r, *a, **k))
    for i, (E, F) in enumerate(_factor_pairs()):
        certs = maps.builtin_certificates(E, F)
        U = random_complex(make_rng(0, "admission", i), 1, E.dim * F.dim)
        searched.clear()
        for _ in range(2):
            pl_norm_bracket(E, F, U, budget=60, certificates=certs)
        assert searched == [id(c.bilinear) for c in certs if c.bilinear is not None]
        for cert in certs:
            assert cert.lb_estimate is None or cert.lb_estimate.lower <= cert.bound * (1 + 1e-12), cert.name


@pytest.mark.parametrize("case", ["projective-row", "twice"])
@pytest.mark.parametrize("fn", [pl_norm_bracket, l_norm_bracket], ids=["pl", "l"])
def test_a_certificate_name_taken_by_a_row_is_refused_at_admission(monkeypatch, fn, case):
    """A passed certificate named like a projective row, or twice passed, would
    share one details["certificates"] entry with the other row; it is refused,
    named, before any family is built."""
    from dataclasses import replace

    from pllab import tensorlab
    from pllab.maps import builtin_certificates

    E, F = Quantization.max(BaseNorm.lp(1.0, weights=[1.0, 2.0])), Quantization.hilbert(2)
    pair = builtin_certificates(E, F)[0]
    certs = [pair, replace(pair, name="max-tensor-identity")] if case == "projective-row" else [pair, pair]
    monkeypatch.setattr(tensorlab, "_pl_families", lambda *a: pytest.fail("families built"))
    name = certs[1].name
    with pytest.raises(ValueError, match=f"certificate '{name}': a projective row or an earlier one has its name"):
        fn(E, F, np.arange(1, 9).reshape(2, 4), budget=60, certificates=certs)


def test_brackets_run_no_semi_ruan_search(monkeypatch):
    """The l pool is decided from the descriptors alone: pl, l and
    compare_pl_l never call the witness search, through any binding of it."""
    import pllab
    from pllab import quantizations

    searched = []
    search = quantizations.semi_ruan_witness_search

    def counted_search(q, *args, **kwargs):
        searched.append(q.kind)
        return search(q, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "pllab" or name.startswith("pllab."):
            for binding, value in list(vars(mod).items()):
                if value is search:
                    monkeypatch.setattr(mod, binding, counted_search)
    assert pllab.semi_ruan_witness_search is counted_search
    cases = [(E, F, 2) for E, F in _factor_pairs()]
    cases.append((Quantization.max(BaseNorm.euclidean(2)), _min_l1(2), 2))
    for E, F, d in cases:
        U = random_complex(make_rng(0, "pinned", E.kind, F.kind), d, E.dim * F.dim)
        pl_norm_bracket(E, F, U, budget=60, seed=0)
        l_norm_bracket(E, F, U, budget=60, seed=0)
        compare_pl_l(E, F, U, budget=60, seed=0)
    assert searched == []


def _min_l1(n):
    return Quantization.min(BaseNorm.lp(1.0, weights=np.ones(n)))


def _catalog_targets():
    from pllab.maps import builtin_certificates

    return [c.target for E, F in _factor_pairs() for c in builtin_certificates(E, F)]


def test_semi_ruan_verdict_has_no_falsifier():
    """Every descriptor Quantization.semi_ruan proves passes the witness search."""
    from pllab.quantizations import semi_ruan_witness_search
    from pllab.suites import quantization_pool

    proved = [q for q in quantization_pool() + _catalog_targets() if q.semi_ruan]
    assert {q.kind for q in proved} == {"min", "hilbert", "lp", "concrete"}
    for q in proved:
        assert semi_ruan_witness_search(q, trials=50) is None, q.to_dict()


def test_semi_ruan_verdicts_from_the_descriptor():
    from pllab.suites import quantization_pool

    H = Quantization.hilbert
    concrete = quantization_pool()[11]
    proved = [
        Quantization.min(BaseNorm.lp(1.0, weights=[1.0, 2.0])),
        H(3),
        concrete,
        Quantization.lp(2.0, [1.0, 0.5], inner=H(2)),
        Quantization.lp(np.inf, [1.0, 2.0]),
        Quantization.lp(1.0, [2.0], inner=concrete),  # one point over a proved inner
        Quantization.lp(1.5, [2.0], inner=Quantization.lp(4.0, [1.0, 1.0])),
    ]
    unproved = [
        Quantization.lp(1.0, [1.0, 1.0]),  # not semi-Ruan: the search finds a witness
        Quantization.lp(1.5, [1.0, 1.0], inner=H(2)),
        Quantization.lp(2.0, [1.0, 1.0], inner=Quantization.max(BaseNorm.euclidean(2))),
        Quantization.max(BaseNorm.euclidean(2)),
        Quantization.tensor_p(BaseNorm.euclidean(2), H(2)),
    ]
    assert [q.semi_ruan for q in proved] == [True] * len(proved)
    assert [q.semi_ruan for q in unproved] == [False] * len(unproved)


def test_l_pool_keeps_proved_targets_only():
    from pllab.suites import quantization_pool

    concrete = quantization_pool()[11]
    tri = quantization_pool()[3].base
    U = random_complex(make_rng(0, "l-pool"), 2, 6)
    l = l_norm_bracket(Quantization.lp(1.0, [2.0]), concrete, U[:, :3])
    assert l.details["pool"] == ["functional-pair", "l1-reshape"]  # lp(1, [2], inner=concrete)
    l = l_norm_bracket(Quantization.max(tri), concrete, U)
    assert l.details["pool"] == ["functional-pair"]  # a max-tensor-identity row never counts for l
    l = l_norm_bracket(Quantization.max(BaseNorm.euclidean(2)), _min_l1(2), U[:, :4])
    assert l.details["pool"] == ["functional-pair"]


def test_pl_bounds_are_floats():
    E = Quantization.lp(1.0, [0.1, 0.1])
    b = pl_norm_bracket(E, E, np.ones((2, 4)))
    assert b.details["method"] in ("columns", "svd-split")
    assert type(b.upper) is float and type(b.lower) is float
    for i, (E, F) in enumerate(_factor_pairs()):
        U = random_complex(make_rng(0, "pinned", i), 2, E.dim * F.dim)
        for b in (pl_norm_bracket(E, F, U, budget=60), l_norm_bracket(E, F, U, budget=60)):
            assert {type(v) for v in (b.lower, b.upper, *b.details["families"].values())} == {float}


# (pl lower, pl upper, l lower, l upper) of the thirteen pinned pairs while the
# l upper was the value of the unbalanced orthogonalization, each term's
# amplified norms evaluated again on the zero-padded factors
_UNBALANCED_ROWS = [
    (4.600887867689945, 5.702506118167487, 4.106785970502511, 6.428532253669796),
    (5.647517779356557, 9.350242109030786, 4.880793439241503, 10.318509276045049),
    (5.561829468984976, 5.561829468984977, 5.561829468984976, 5.561829468984977),
    (3.248817316675565, 4.594521510915151, 3.248817316675565, 4.594521510915151),
    (8.601495538180714, 8.601495538180714, 6.132005882467868, 9.121696001256764),
    (6.850891669199025, 6.850891669199026, 4.558527536280892, 7.268559120353239),
    (6.75171174868715, 6.75171174868715, 4.957653364329681, 7.492034257923683),
    (11.989546551295032, 11.989546551295032, 9.32940799997854, 10.937113733739537),
    (4.176589671507163, 4.176589671507163, 4.155107603652271, 4.206132332207827),
    (5.848488096232464, 6.182560181993362, 5.848488096232464, 6.182560181993364),
    (9.4964934006931, 9.4964934006931, 3.413485859749294, 9.652253434613904),
    (4.921853312034693, 10.240945755344335, 4.921853312034693, 11.166253993487546),
    (11.288957427909528, 18.526838669188205, 11.288957427909528, 18.52683866918821),
]


@pytest.mark.parametrize("i", range(13))
def test_balanced_orthogonalization_moves_only_l_uppers_down(i):
    pl_lower, pl_upper, l_lower, l_upper = _UNBALANCED_ROWS[i]
    pl, l = _pinned_brackets(i)
    got = (pl.lower, pl.upper, l.lower)
    assert got == pytest.approx((pl_lower, pl_upper, l_lower), rel=1e-12, abs=0)
    assert l.upper <= l_upper * (1 + 1e-12)
    assert l.upper <= pl.upper * (1 + 1e-12)


@pytest.mark.parametrize("i", range(13))
def test_upper_witnesses_re_evaluate_to_the_reported_uppers(i):
    """The l witness carries the balanced blocks and factors its upper was
    valued from, so re-evaluating its amplified norms gives that upper."""
    for b in _pinned_brackets(i):
        assert b.upper_witness.value(budget=50, seed=0) == pytest.approx(b.upper, rel=1e-9)


def _witness_from_wire(data, U, E, F):
    """The representation held in the wire form of an upper witness."""
    pairing = PairingMap(data["pairing"])
    if data["kind"] == "pl":
        terms = [tuple(matrix_from_json(t[k]) for k in ("block", "left", "right")) for t in data["terms"]]
        return PLRepresentation(terms, U, E, F, pairing)
    terms = [(matrix_from_json(t["left"]), matrix_from_json(t["right"])) for t in data["terms"]]
    return LRepresentation(matrix_from_json(data["block"]), terms, data["supports"], U, E, F, pairing)


@pytest.mark.parametrize("scheme", ["row-major", "column-major"])
@pytest.mark.parametrize("scale", [1.0, 1e12])
@pytest.mark.parametrize("i", [0, 4, 7, 10, 11])
def test_upper_witness_data_rebuilds_the_element(i, scale, scheme):
    """The matrices of to_dict()["upper_witness"] rebuild the element itself,
    at its own scale, and the metadata names the witness."""
    E, F = _factor_pairs()[i]
    U = scale * random_complex(make_rng(0, "witness-data", i), 2, E.dim * F.dim)
    for b in (
        pl_norm_bracket(E, F, U, budget=60, pairing=PairingMap(scheme)),
        l_norm_bracket(E, F, U, budget=60, pairing=PairingMap(scheme)),
    ):
        rep = b.upper_witness
        data = json.loads(json.dumps(b.to_dict()["upper_witness"]))
        assert (data["kind"], data["label"], data["n_terms"], data["pairing"]) == (
            b.norm, rep.label, len(rep.terms), scheme
        )
        if b.norm == "l":
            assert data["supports"] == [list(s) for s in rep.supports]
        back = _witness_from_wire(data, U, E, F)
        assert back.residual() <= RECON_TOL


def test_l_bracket_evaluates_no_amp_norm_beyond_the_families(monkeypatch):
    from pllab import quantizations

    calls = []
    dispatch = quantizations._amp_dispatch

    def counted(q, *args, **kwargs):
        calls.append(q.kind)
        return dispatch(q, *args, **kwargs)

    monkeypatch.setattr(quantizations, "_amp_dispatch", counted)
    for E, F in _factor_pairs():
        U = random_complex(make_rng(0, "amp-count"), 2, E.dim * F.dim)
        pl_norm_bracket(E, F, U, seed=0, certificates=[])
        pl_calls = len(calls)
        calls.clear()
        l_norm_bracket(E, F, U, seed=0, certificates=[])
        assert len(calls) == pl_calls > 0
        calls.clear()


# hilbert x hilbert, min(euclidean) x hilbert, max(weighted l1) x hilbert, lp1 x lp1
_PROPERTY_PAIRS = (0, 3, 4, 7)


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(_PROPERTY_PAIRS),
    st.integers(1, 3),
    st.data(),
)
def test_bracket_properties_on_random_elements(i, d, data):
    E, F = _factor_pairs()[i]
    parts = hnp.arrays(np.float64, (2, d, E.dim * F.dim), elements=st.floats(-1, 1, width=32))
    re, im = data.draw(parts)
    U = re + 1j * im
    ref = compare_pl_l(E, F, U, seed=0)
    pl, l = ref["pl"], ref["l"]
    assert pl["lower"] <= pl["upper"] and l["lower"] <= l["upper"]
    assert l["upper"] <= pl["upper"] * (1 + 1e-12)
    # homogeneity, and invariance under the scheme that pairs the H slots
    for s, pairing in ((1e-3, PairingMap()), (1e3, PairingMap()), (1.0, PairingMap("column-major"))):
        got = compare_pl_l(E, F, s * U, seed=0, pairing=pairing)
        for norm in ("pl", "l"):
            for key in ("lower", "upper"):
                assert got[norm][key] == pytest.approx(s * ref[norm][key], rel=1e-12, abs=0)


def test_l_lower_is_homogeneous_where_l1_ascent_columns_tie():
    """At this element both columns of a weighted-l1 dual-ball ascent reach
    one optimum, tied up to rounding; the tie must not let rounding pick
    the witness that the functional-pair search continues from."""
    E, F = _factor_pairs()[4]
    U = np.array([[0, 0.5, 0, 0.5], [1, -1, 0.5, 0.5]]) + 0.5j
    ref = l_norm_bracket(E, F, U, seed=0)
    for s in (1e-3, 1e3):
        got = l_norm_bracket(E, F, s * U, seed=0)
        assert got.lower == pytest.approx(s * ref.lower, rel=1e-12, abs=0)


def test_bracket_winners_do_not_follow_rounding():
    """Families and certificates that tie up to rounding keep their order, so
    over the thirteen pairs at d = 1..3 a rescaling of the element by
    1 + 2**-52, 1 - 2**-53 or 3 changes neither norm's winning family nor its
    certificate."""

    def picks(E, F, U):
        rep = compare_pl_l(E, F, U, seed=0)
        return [(rep[n]["upper_witness"]["label"], rep[n]["lower_witness"]["certificate"]) for n in ("pl", "l")]

    for i, (E, F) in enumerate(_factor_pairs()):
        for d in (1, 2, 3):
            U = random_complex(make_rng(0, "tie-grid", i, d), d, E.dim * F.dim)
            want = picks(E, F, U)
            for s in (1 + 2.0**-52, 1 - 2.0**-53, 3.0):
                assert picks(E, F, s * U) == want, (i, d, s)


if __name__ == "__main__":
    _record_bracket_pins([int(a) for a in sys.argv[1:]] or range(13))
