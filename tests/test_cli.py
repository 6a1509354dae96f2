"""Command-line front end: formats, determinism, exit codes, diagnostics."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pllab import cli
from pllab.jsonio import (
    InputError,
    canonical,
    complex_from_json,
    complex_to_json,
    load_document,
    matrix_from_json,
    matrix_to_json,
    render_csv,
    validate_document,
)
from pllab.sampling import make_rng, random_complex


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def norm_doc(**over):
    doc = {
        "schema_version": "1",
        "quantization": {
            "kind": "min",
            "params": {"base": {"kind": "euclidean", "dim": 2}},
        },
        "element": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    }
    doc.update(over)
    return json.dumps(doc)


def pair_doc(element=None, **over):
    if element is None:
        element = [[[1, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0], [1, 0]]]
    doc = {
        "schema_version": "1",
        "left": {"kind": "hilbert", "dim": 2},
        "right": {"kind": "hilbert", "dim": 2},
        "element": element,
    }
    doc.update(over)
    return json.dumps(doc)


# -- jsonio ------------------------------------------------------------------


def test_complex_and_matrix_codecs_roundtrip():
    z = 1.5 - 2.25j
    assert complex_from_json(complex_to_json(z)) == z
    rng = make_rng(71, "codec")
    M = random_complex(rng, 3, 2)
    np.testing.assert_allclose(matrix_from_json(matrix_to_json(M)), M, atol=0)


def test_canonical_strips_numpy_types():
    data = {
        "a": np.float64(1.5),
        "b": np.int32(3),
        "c": np.bool_(True),
        "d": np.arange(2.0),
        "e": (np.float64(0.1),),
    }
    out = canonical(data)
    assert json.dumps(out)  # serializable
    assert type(out["a"]) is float and type(out["b"]) is int and type(out["c"]) is bool
    assert out["d"] == [0.0, 1.0] and out["e"] == [0.1]


def test_validate_document_reports_json_pointer():
    doc = {
        "schema_version": "1",
        "quantization": {
            "kind": "lp",
            "params": {"p": 2, "weights": [1.0, -1.0]},
            "inner": {"kind": "hilbert", "dim": 1},
        },
        "element": [[[1, 0], [0, 0]]],
    }
    with pytest.raises(InputError) as info:
        validate_document(doc, "norm")
    pointers = {d["pointer"] for d in info.value.diagnostics}
    assert "/quantization/params/weights/1" in pointers


def test_load_document_inline_and_file(tmp_path):
    inline = load_document('{"schema_version": "1"}')
    assert inline == {"schema_version": "1"}
    p = tmp_path / "job.json"
    p.write_text('{"schema_version": "1"}')
    assert load_document(str(p)) == inline
    with pytest.raises(InputError):
        load_document(str(tmp_path / "absent.json"))
    with pytest.raises(InputError):
        load_document("{broken")
    with pytest.raises(InputError):
        load_document("[1, 2]")


def test_render_csv_flattens_value_rows():
    rows = [
        {"case": "a", "lower": 1.0, "upper": 2.0, "expected": 1.5, "passed": True},
        {"case": "b", "value": 3.0, "passed": False},
        {"case": "c", "passed": True},
    ]
    lines = render_csv(rows).splitlines()
    assert lines[0] == "case,lower,upper,expected,pass"
    assert lines[1] == "a,1.0,2.0,1.5,true"
    assert lines[2] == "b,3.0,3.0,,false"
    assert lines[3] == "c,,,,true"


# -- cli ---------------------------------------------------------------------


def test_norm_command_exact_case(capsys):
    code, out, err = run_cli(capsys, "--command", "norm", "--input", norm_doc())
    assert code == 0
    rep = json.loads(out)
    assert rep["schema_version"] == "1"
    assert rep["outcome"] == "pass"
    case = rep["cases"][0]
    assert case["lower"] == case["upper"] == 1.0
    assert case["exact"] is True
    assert "elapsed" in err  # timing goes to stderr, not into the report


def test_reports_are_byte_identical(capsys):
    """Same job, same bytes; the seed changes the bytes."""
    args = ("--command", "verify-paper", "--n-max", "2", "--budget", "60")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    _, out3, _ = run_cli(capsys, *args, "--seed", "5")
    assert out3 != out1


def test_cases_sorted_by_id(capsys):
    code, out, _ = run_cli(
        capsys, "--command", "verify-paper", "--n-max", "2", "--budget", "60"
    )
    assert code == 0
    ids = [c["case"] for c in json.loads(out)["cases"]]
    assert ids == sorted(ids)


def test_gap_exit_code(capsys):
    rng = make_rng(1, "gapcase")
    U = random_complex(rng, 2, 4)
    doc = pair_doc(element=[[complex_to_json(z) for z in row] for row in U])
    code, out, _ = run_cli(capsys, "--command", "pl", "--input", doc, "--budget", "60")
    assert code == 2
    rep = json.loads(out)
    assert rep["outcome"] == "gap"
    assert rep["summary"]["gaps"] == 1 and rep["summary"]["failed"] == 0


def test_compare_command_rows(capsys):
    code, out, _ = run_cli(
        capsys, "--command", "compare", "--input", pair_doc(), "--budget", "80"
    )
    rep = json.loads(out)
    ids = [c["case"] for c in rep["cases"]]
    assert "pl" in ids and "l" in ids and "separation-ratio" in ids
    assert all(c["passed"] for c in rep["cases"])
    assert code in (0, 2)


def test_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "--command", "norm", "--input", norm_doc(), "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "case,lower,upper,expected,pass"
    assert lines[1].startswith("norm,1.0,1.0,")


def test_schema_violation_exit_and_pointer(capsys):
    doc = norm_doc(quantization={"kind": "banana"})
    code, out, _ = run_cli(capsys, "--command", "norm", "--input", doc)
    assert code == 3
    rep = json.loads(out)
    assert rep["outcome"] == "input-error"
    assert rep["error"]["diagnostics"][0]["pointer"] == "/quantization/kind"


def test_dimension_mismatch_is_input_error(capsys):
    doc = norm_doc(element=[[[1, 0], [0, 0], [0, 0]]])  # 3 columns over a 2-dim base
    code, out, _ = run_cli(capsys, "--command", "norm", "--input", doc)
    assert code == 3
    rep = json.loads(out)
    assert rep["error"]["diagnostics"][0]["pointer"] == "/element"


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("command", ["norm", "pl"])
def test_non_finite_element_is_input_error(capsys, command, bad):
    if command == "norm":
        doc = norm_doc(element=[[[1, 0], [0, 0]], [[0, 0], [1, bad]]])
    else:
        doc = pair_doc(element=[[[1, 0], [0, 0], [bad, 0], [0, 0]]])
    code, out, _ = run_cli(capsys, "--command", command, "--input", doc)
    assert code == 3
    rep = json.loads(out)
    assert rep["outcome"] == "input-error"
    want = "/element/1/1" if command == "norm" else "/element/0/2"
    assert rep["error"]["diagnostics"][0]["pointer"] == want


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["norm", "pl", "l", "compare"]),
    st.integers(1, 3),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 1),
                       st.sampled_from([float("nan"), float("inf"), float("-inf")])),
             min_size=1, max_size=3),
)
def test_non_finite_entries_anywhere_exit_3_with_the_first_pointer(command, d, bad_entries):
    """Exit 3 with the pointer /element/i/j of the first non-finite entry in
    row-major order, whichever part of the [re, im] pair holds it."""
    m = 2 if command == "norm" else 4
    element = [[[1.0, 0.5] for _ in range(m)] for _ in range(d)]
    for i, j, part, bad in bad_entries:
        element[i % d][j % m][part] = bad
    first = min((i % d, j % m) for i, j, _, _ in bad_entries)
    doc = norm_doc(element=element) if command == "norm" else pair_doc(element=element)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--command", command, "--input", doc])
    assert code == 3
    rep = json.loads(out.getvalue())
    assert rep["outcome"] == "input-error"
    assert rep["error"]["diagnostics"][0]["pointer"] == "/element/{}/{}".format(*first)


def _bad_quantization(kind: str, bad: float) -> dict:
    """A dim-2 descriptor with one non-finite number."""
    if kind == "lp-weights":
        return {"kind": "lp", "params": {"p": 1, "weights": [bad, 1.0]}}
    if kind == "base-weights":
        base = {"kind": "lp", "dim": 2, "p": 1, "weights": [bad, 1.0]}
        return {"kind": "min", "params": {"base": base}}
    if kind == "generators":
        gens = [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[0, 0], [bad, 0]], [[1, 0], [0, 0]]]]
        return {"kind": "concrete", "params": {"generators": gens}}
    verts = [[[1, 0], [0, 0]], [[-1, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [-1, 0]], [[bad, 0], [0, 0]]]
    return {"kind": "min", "params": {"base": {"kind": "polytope", "dim": 2, "vertices": verts}}}


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("kind", ["lp-weights", "base-weights", "generators", "vertices"])
@pytest.mark.parametrize("pointer", ["/quantization", "/left", "/right"])
def test_non_finite_descriptor_is_input_error(capsys, pointer, kind, bad):
    q = _bad_quantization(kind, bad)
    if pointer == "/quantization":
        command, doc = "norm", norm_doc(quantization=q)
    else:
        command, doc = "pl", pair_doc(**{pointer[1:]: q})
    code, out, _ = run_cli(capsys, "--command", command, "--input", doc)
    assert code == 3
    rep = json.loads(out)
    assert rep["outcome"] == "input-error"
    assert rep["error"]["diagnostics"][0]["pointer"] == pointer


def test_element_of_any_finite_magnitude_is_bracketed(capsys):
    code, out, _ = run_cli(capsys, "--command", "pl", "--input", pair_doc())
    unit = json.loads(out)["cases"][0]
    huge = [[[1e200 * re, 1e200 * im] for re, im in row] for row in json.loads(pair_doc())["element"]]
    code_huge, out, _ = run_cli(capsys, "--command", "pl", "--input", pair_doc(element=huge))
    assert code == code_huge == 0
    case = json.loads(out)["cases"][0]
    assert case["lower"] == pytest.approx(1e200 * unit["lower"], rel=1e-12, abs=0)
    assert case["upper"] == pytest.approx(1e200 * unit["upper"], rel=1e-12, abs=0)
    # a norm beyond the float range is an input error
    code, out, _ = run_cli(capsys, "--command", "pl", "--input", pair_doc(element=[[[1e308, 0]] * 4]))
    assert code == 3
    assert json.loads(out)["error"]["diagnostics"][0]["pointer"] == "/element"


def test_element_of_huge_magnitude_leaves_stderr_quiet():
    """A fresh CLI process on a 1e200 element prints no numpy RuntimeWarning."""
    huge = [[[1e200 * re, 1e200 * im] for re, im in row] for row in json.loads(pair_doc())["element"]]
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pllab.cli", "--command", "pl", "--input", pair_doc(element=huge)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert "elapsed" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_missing_input_is_input_error(capsys):
    code, out, _ = run_cli(capsys, "--command", "pl")
    assert code == 3


def test_violation_exit_code_and_repro(capsys, monkeypatch):
    """A failed case exits 1 and carries a reproduction command line."""

    def broken_compare(*a, **k):
        raise AssertionError("pl/l comparison failed sound check demo")

    monkeypatch.setattr(cli, "compare_pl_l", broken_compare)
    code, out, _ = run_cli(capsys, "--command", "compare", "--input", pair_doc())
    assert code == 1
    rep = json.loads(out)
    assert rep["outcome"] == "violation"
    bad = rep["cases"][0]
    assert not bad["passed"]
    assert bad["repro"].startswith("pllab --command compare")
    assert "--seed 0" in bad["repro"]


@pytest.mark.parametrize(
    "command,doc", [("norm", norm_doc()), ("compare", pair_doc())], ids=["norm", "compare"]
)
def test_reports_do_not_read_the_environment(capsys, monkeypatch, command, doc):
    """PLLAB_THREADS is no knob: the report is the same bytes without it and
    with it set, and its threads parameter stays 1."""
    monkeypatch.delenv("PLLAB_THREADS", raising=False)
    code, unset, _ = run_cli(capsys, "--command", command, "--input", doc)
    assert code == 0
    monkeypatch.setenv("PLLAB_THREADS", "2")
    assert run_cli(capsys, "--command", command, "--input", doc)[:2] == (code, unset)
    assert json.loads(unset)["parameters"]["threads"] == 1


def test_pairing_scheme_accepted(capsys):
    doc = pair_doc(pairing="column-major")
    code_col, out_col, _ = run_cli(capsys, "--command", "l", "--input", doc)
    code_row, out_row, _ = run_cli(capsys, "--command", "l", "--input", pair_doc())
    a = json.loads(out_col)["cases"][0]
    b = json.loads(out_row)["cases"][0]
    assert a["lower"] == pytest.approx(b["lower"], abs=1e-10)
    assert a["upper"] == pytest.approx(b["upper"], abs=1e-10)
