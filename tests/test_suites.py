"""Verification suites at reduced sizes; acceptance runs them at full size."""

from pllab.suites import (
    certificate_sweep,
    properties_suite,
    quantization_pool,
    v_example,
    verify_paper_suite,
)


def test_v_example_shape():
    V = v_example(3)
    assert V.shape == (3, 9)
    assert V.sum() == 3.0
    assert (V[1] != 0).sum() == 1 and V[1, 1 * 3 + 1] == 1.0


def test_verify_paper_suite_small():
    rows = verify_paper_suite(n_max=2, budget=80, seed=0, cert_pairs=10)
    assert rows, "suite produced no cases"
    failed = [r["case"] for r in rows if not r["passed"]]
    assert failed == []
    ids = [r["case"] for r in rows]
    assert len(ids) == len(set(ids))  # case ids are unique
    assert any(r["case"].startswith("v-pl/") for r in rows)
    assert any(r["case"].startswith("min-svd/") for r in rows)
    assert any(r["case"].startswith("lp-embed/") for r in rows)


def test_verify_paper_suite_deterministic():
    a = verify_paper_suite(n_max=2, budget=60, seed=3, cert_pairs=5)
    b = verify_paper_suite(n_max=2, budget=60, seed=3, cert_pairs=5)
    assert a == b


def test_properties_suite_small():
    rows = properties_suite(trials=150, seed=0)
    by_case = {r["case"]: r for r in rows}
    assert by_case["module-contractivity"]["violations"] == 0
    assert by_case["cross-norm"]["violations"] == 0
    assert by_case["semi-ruan-violation/lp1"]["witness_found"]
    for name in ("min-euclidean", "hilbert", "lp2"):
        assert by_case[f"semi-ruan-pass/{name}"]["passed"]


def test_properties_suite_one_trial_finds_the_lp1_counterexample():
    """The lp1 falsifier runs at least its dim ** 2 structured trials, so one
    trial per sweep still finds the known semi-Ruan violation."""
    rows = properties_suite(trials=1, seed=0)
    assert [r["case"] for r in rows if not r["passed"]] == []
    lp1 = next(r for r in rows if r["case"] == "semi-ruan-violation/lp1")
    assert lp1["witness_found"] and lp1["trials"] == 4


def test_certificate_sweep_small():
    summary, violations = certificate_sweep(pairs=40, budget=40, seed=0)
    assert violations == []
    assert summary["checked"] > summary["pairs"]  # several certificates per pair
    assert summary["worst_excess"] <= 1e-9


def test_quantization_pool_covers_every_kind():
    kinds = {q.kind for q in quantization_pool()}
    assert kinds == {"min", "max", "hilbert", "lp", "concrete", "tensor_p"}
