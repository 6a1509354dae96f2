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
from pllab.sampling import make_rng, random_complex
from pllab.suites import v_example

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
    """Every descriptor _semi_ruan proves passes the witness search."""
    from pllab.quantizations import semi_ruan_witness_search
    from pllab.suites import quantization_pool
    from pllab.tensorlab import _semi_ruan

    proved = [q for q in quantization_pool() + _catalog_targets() if _semi_ruan(q)]
    assert {q.kind for q in proved} == {"min", "hilbert", "lp", "concrete"}
    for q in proved:
        assert semi_ruan_witness_search(q, trials=50) is None, q.to_dict()


def test_semi_ruan_verdicts_from_the_descriptor():
    from pllab.suites import quantization_pool
    from pllab.tensorlab import _semi_ruan

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
    assert [_semi_ruan(q) for q in proved] == [True] * len(proved)
    assert [_semi_ruan(q) for q in unproved] == [False] * len(unproved)


def test_l_pool_keeps_proved_targets_only():
    from pllab.suites import quantization_pool

    concrete = quantization_pool()[11]
    tri = quantization_pool()[3].base
    U = random_complex(make_rng(0, "l-pool"), 2, 6)
    l = l_norm_bracket(Quantization.lp(1.0, [2.0]), concrete, U[:, :3])
    assert l.details["pool"] == ["functional-pair", "l1-reshape"]  # lp(1, [2], inner=concrete)
    l = l_norm_bracket(Quantization.max(tri), concrete, U)
    assert l.details["pool"] == ["functional-pair"]  # max-tensor-identity's tensor_p target is unproved
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
    (4.921853311072688, 10.240945755344335, 4.921853311072688, 11.166253993487546),
    (9.648175661411658, 18.526838669188205, 9.648175661411658, 18.52683866918821),
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


if __name__ == "__main__":
    _record_bracket_pins([int(a) for a in sys.argv[1:]] or range(13))
