"""Command-line front end: formats, determinism, exit codes, diagnostics."""

import contextlib
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys
import time

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


def test_canonical_complex_scalars_and_non_finite_floats():
    out = canonical([np.complex128(2.5), 1 - 2j, np.float64("nan"), float("inf"), np.float32("-inf")])
    assert out == [2.5, [1.0, -2.0], "nan", "inf", "-inf"]
    assert type(out[0]) is float


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


def test_validate_document_reports_a_value_nested_past_the_recursion_limit():
    """The walk, and repr in its messages, recurse once per nested value; a
    document built in Python nests deeper than the JSON decoder allows."""
    element, inner = [[[1, 0]]], {"kind": "hilbert", "dim": 1}
    for _ in range(5000):
        element, inner = [element], {"kind": "lp", "params": {"p": 2, "weights": [1]}, "inner": inner}
    for doc in (dict(json.loads(norm_doc()), element=element), dict(json.loads(norm_doc()), quantization=inner)):
        with pytest.raises(InputError, match="^input nests too deeply to check against the norm schema") as info:
            validate_document(doc, "norm")
        assert [d["pointer"] for d in info.value.diagnostics] == [""]


def test_load_document_inline_and_file(tmp_path):
    inline = load_document('{"schema_version": "1"}')
    assert inline == {"schema_version": "1"}
    p = tmp_path / "job.json"
    p.write_text('{"schema_version": "1"}')
    assert load_document(str(p)) == inline
    with pytest.raises(InputError) as info:
        load_document(str(tmp_path / "absent.json"))
    assert [d["pointer"] for d in info.value.diagnostics] == [""]  # the whole document
    assert "cannot read input file" in info.value.diagnostics[0]["message"]
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


def test_an_lp_exponent_without_a_dual_exponent_is_input_error(capsys):
    """No dual exponent (p from 2**53), dual weights w ** (-q / p) that
    overflow or underflow (p just above 1), or, at p = 1 and inf, a weight w
    or 1 / w that is not a normal float: input errors at the descriptor."""
    for base in ({"kind": "lp", "dim": 3, "p": 1e16},
                 {"kind": "lp", "dim": 3, "p": 1 + 1e-9, "weights": [1.0, 0.5, 2.0]},
                 {"kind": "lp", "dim": 3, "p": 1 + 1e-9, "weights": [1.0, 1.0, 2.0]},
                 {"kind": "lp", "dim": 3, "p": 1, "weights": [1e-310, 1.0, 1.0]},
                 {"kind": "lp", "dim": 3, "p": "inf", "weights": [1e-309, 1.0, 1.0]},
                 {"kind": "lp", "dim": 3, "p": 1, "weights": [1e308, 1.0, 1.0]}):
        for kind in ("min", "max"):
            doc = norm_doc(quantization={"kind": kind, "params": {"base": base}}, element=[[[1, 0], [2, 0], [3, 0]]])
            assert _input_error_pointer(capsys, "norm", doc) == "/quantization"
    for p, w in ((1 + 1e-9, 0.5), (1, 1e-310), ("inf", 1e-309)):
        points = {"kind": "lp", "params": {"p": p, "weights": [w, 1.0]}}
        for side in ("left", "right"):
            assert _input_error_pointer(capsys, "pl", pair_doc(**{side: points})) == f"/{side}"


def _input_error_pointer(capsys, command, doc):
    code, out, _ = run_cli(capsys, "--command", command, "--input", doc)
    assert code == 3
    rep = json.loads(out)
    assert rep["outcome"] == "input-error"
    return rep["error"]["diagnostics"][0]["pointer"]


def test_ragged_element_rows_point_at_the_first_row_of_another_length(capsys):
    ragged = [[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[1, 0]], [[1, 0]]]
    assert _input_error_pointer(capsys, "norm", norm_doc(element=ragged)) == "/element/2"


def test_a_document_that_is_not_an_object_points_at_the_whole_document(capsys, tmp_path):
    path = tmp_path / "job.json"
    path.write_text("[1]")
    assert _input_error_pointer(capsys, "norm", str(path)) == ""


@pytest.mark.parametrize("content", [None, b'{"label": "\xff"}', b"[" * 100_000 + b"]" * 100_000],
                         ids=["inline", "file-not-utf8", "file-nested-100000"])
def test_invalid_json_points_at_the_whole_document(capsys, tmp_path, content):
    source = '{"schema_version": '
    if content is not None:
        source = tmp_path / "job.json"
        source.write_bytes(content)
    assert _input_error_pointer(capsys, "pl", str(source)) == ""


def _chain(depth: int, kind: str) -> str:
    """A descriptor of depth descriptors, the outer ones lp or tensor_p over
    an l1 base through inner, built as text: json.dumps recurses per level."""
    head = {"lp": '{"kind": "lp", "params": {"p": 2, "weights": [1]}, "inner": ',
            "tensor_p": '{"kind": "tensor_p", "params": {"base": {"kind": "lp", "dim": 1, "p": 1}}, "inner": '}[kind]
    return head * (depth - 1) + '{"kind": "hilbert", "dim": 1}' + "}" * (depth - 1)


@pytest.mark.parametrize("depth", [400, 5000])
@pytest.mark.parametrize("command", ["norm", "pl"])
def test_a_descriptor_nested_past_the_bound_is_input_error(capsys, command, depth):
    """No depth reaches a traceback: past MAX_DEPTH the descriptor's pointer,
    past the JSON decoder's own depth the whole document."""
    if command == "norm":
        doc = '{"schema_version": "1", "element": [[[1, 0]]], "quantization": %s}' % _chain(depth, "lp")
    else:
        doc = ('{"schema_version": "1", "element": [[[1, 0]]], "right": {"kind": "hilbert", "dim": 1}, '
               '"left": %s}' % _chain(depth, "tensor_p"))
    code, out, _ = run_cli(capsys, "--command", command, "--input", doc)
    assert code == 3
    error = json.loads(out)["error"]
    if depth == 400:
        assert error["diagnostics"] == [{"pointer": "/quantization" if command == "norm" else "/left",
                                         "message": "descriptor chains 400 descriptors through inner, at most 32"}]
    else:
        assert error["diagnostics"][0]["pointer"] == "" and "recursion" in error["message"]


def test_a_pl_job_on_the_deepest_tensor_p_chain_ends_quickly(capsys):
    """31 tensor_p levels over hilbert(1), the most MAX_DEPTH admits: below
    the first level the functional-pair search takes one greedy pass per
    level, so the job ends in a fraction of a second where a full nested
    search per level grew about tenfold per level."""
    doc = ('{"schema_version": "1", "element": [[[1, 0]]], "right": {"kind": "hilbert", "dim": 1}, '
           '"left": %s}' % _chain(32, "tensor_p"))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "--command", "pl", "--input", doc)
    assert time.perf_counter() - start < 10.0
    assert code == 0
    case = next(c for c in json.loads(out)["cases"] if "upper" in c)
    assert case["lower"] == pytest.approx(1.0, rel=1e-12) and case["upper"] == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("swapped", [False, True])
@pytest.mark.parametrize("projective", [
    '{"kind": "max", "params": {"base": {"kind": "lp", "dim": 2, "p": 1, "weights": [1, 1]}}}',
    '{"kind": "lp", "params": {"p": 1, "weights": [1, 1]}}',
], ids=["max", "l1"])
@pytest.mark.parametrize("command", ["pl", "compare"])
def test_a_projective_factor_beside_the_deepest_chain_ends_in_a_report(capsys, command, projective, swapped):
    """A max or l1 factor beside 31 lp levels over hilbert(1), 32 descriptors:
    its absorbing target would chain 33, so the catalog leaves that entry out
    and the job reports, in either factor order."""
    left, right = projective, _chain(32, "lp")
    if swapped:
        left, right = right, left
    doc = '{"schema_version": "1", "element": [[[1, 0], [0, 1]]], "left": %s, "right": %s}' % (left, right)
    code, out, _ = run_cli(capsys, "--command", command, "--input", doc)
    assert (code, json.loads(out)["outcome"]) in ((0, "pass"), (2, "gap"))


@pytest.mark.parametrize("command", ["norm", "pl"])
def test_missing_required_key_points_at_the_whole_document(capsys, command):
    doc = json.loads(norm_doc() if command == "norm" else pair_doc())
    del doc["element"]
    code, out, _ = run_cli(capsys, "--command", command, "--input", json.dumps(doc))
    assert code == 3
    error = json.loads(out)["error"]
    assert error["diagnostics"] == [{"pointer": "", "message": "'element' is a required property"}]
    assert error["message"] == (
        f"input does not match the {command} schema at the document root: 'element' is a required property"
    )


@pytest.mark.parametrize("command", ["norm", "compare"])
def test_unknown_top_level_key_points_at_the_whole_document(capsys, command):
    doc = norm_doc(extra=1) if command == "norm" else pair_doc(extra=1)
    code, out, _ = run_cli(capsys, "--command", command, "--input", doc)
    assert code == 3
    diagnostics = json.loads(out)["error"]["diagnostics"]
    assert diagnostics == [{"pointer": "", "message": "Additional properties are not allowed ('extra' was unexpected)"}]


def test_keys_the_descriptor_kind_does_not_read_are_rejected_where_they_sit(capsys):
    """A min descriptor carrying lp params and an inner exits 3 instead of
    reporting the plain min norm."""
    quantization = {"kind": "min", "params": {"base": {"kind": "euclidean", "dim": 2}, "p": 7, "weights": [5, 5]},
                    "inner": {"kind": "hilbert", "dim": 3}}
    code, out, _ = run_cli(capsys, "--command", "norm", "--input", norm_doc(quantization=quantization))
    assert code == 3
    assert json.loads(out)["error"]["diagnostics"] == [
        {"pointer": "/quantization", "message": "Additional properties are not allowed ('inner' was unexpected)"},
        {"pointer": "/quantization/params",
         "message": "Additional properties are not allowed ('p', 'weights' were unexpected)"},
    ]


@pytest.mark.parametrize("quantization, pointer, unexpected", [
    ({"kind": "max", "params": {"base": {"kind": "euclidean", "dim": 2, "p": 2, "weights": [1, 1]}}},
     "/quantization/params/base", "'p', 'weights' were"),
    ({"kind": "min", "params": {"base": {"kind": "lp", "dim": 1, "p": 1, "vertices": [[[1, 0]]]}}},
     "/quantization/params/base", "'vertices' was"),
    ({"kind": "hilbert", "dim": 2, "params": {"base": {"kind": "euclidean", "dim": 2}}},
     "/quantization/params", "'base' was"),
    ({"kind": "max", "params": {"base": {"kind": "euclidean", "dim": 2}}, "inner": {"kind": "hilbert", "dim": 1}},
     "/quantization", "'inner' was"),
    ({"kind": "concrete", "params": {"generators": [[[[1, 0]]]], "base": {"kind": "euclidean", "dim": 1}}},
     "/quantization/params", "'base' was"),
], ids=["p-weights-on-euclidean", "vertices-on-lp", "params-on-hilbert", "inner-on-max", "base-on-concrete"])
def test_each_kind_takes_only_its_own_keys(capsys, quantization, pointer, unexpected):
    code, out, _ = run_cli(capsys, "--command", "norm", "--input", norm_doc(quantization=quantization))
    assert code == 3
    message = f"Additional properties are not allowed ({unexpected} unexpected)"
    assert json.loads(out)["error"]["diagnostics"] == [{"pointer": pointer, "message": message}]


def test_a_descriptor_without_a_valid_kind_may_carry_every_key():
    """With kind missing or unknown, the walk cannot tell which keys are
    foreign, so it reports the kind alone."""
    params = {"base": {"kind": "euclidean", "dim": 2}, "p": 2, "weights": [1], "generators": [[[[1, 0]]]]}
    for quantization, message in (({"params": params}, "'kind' is a required property"),
                                  ({"kind": "bogus", "params": params},
                                   "'bogus' is not one of ['min', 'max', 'hilbert', 'lp', 'concrete', 'tensor_p']")):
        with pytest.raises(InputError) as info:
            validate_document(json.loads(norm_doc(quantization=quantization)), "norm")
        pointer = "/quantization" if "kind" not in quantization else "/quantization/kind"
        assert info.value.diagnostics == [{"pointer": pointer, "message": message}]


def test_declared_dim_that_disagrees_points_at_the_quantization(capsys):
    doc = norm_doc(quantization={"kind": "min", "dim": 3, "params": {"base": {"kind": "euclidean", "dim": 2}}})
    assert _input_error_pointer(capsys, "norm", doc) == "/quantization"


def test_pair_element_column_count_mismatch_points_at_the_element(capsys):
    doc = pair_doc(element=[[[1, 0], [0, 0], [0, 0]]])  # 3 columns over 2 x 2 factors
    assert _input_error_pointer(capsys, "compare", doc) == "/element"


def test_complex_element_on_a_real_restricted_norm_job_is_input_error(capsys):
    base = {"kind": "lp", "dim": 2, "p": 1, "weights": [1, 1], "real": True}
    doc = norm_doc(quantization={"kind": "min", "params": {"base": base}}, element=[[[1, 0.5], [0, 0]]])
    code, out, _ = run_cli(capsys, "--command", "norm", "--input", doc)
    assert code == 3
    rep = json.loads(out)
    assert rep["outcome"] == "input-error"
    assert rep["error"]["diagnostics"][0]["pointer"] == "/element"
    assert "real-valued" in rep["error"]["message"]


_TINY_COMPLEX = [[[1e-13, 0], [1e-13, 0], [0, 1e-13]], [[1e-13, 0], [0, 0], [1e-13, 0]]]


@pytest.mark.parametrize("base, element", [
    ({"kind": "lp", "dim": 3, "p": 1, "real": True}, _TINY_COMPLEX),
    ({"kind": "lp", "dim": 3, "p": 3, "real": True}, _TINY_COMPLEX),
    ({"kind": "euclidean", "dim": 2, "real": True}, [[[1e-13, 0], [0, 1e-13]]]),
], ids=["l1", "l3", "euclidean"])
def test_real_mode_test_is_relative_to_the_largest_entry(capsys, base, element):
    """An imaginary part as large as the entries is rejected at any scale."""
    doc = norm_doc(quantization={"kind": "min", "params": {"base": base}}, element=element)
    code, out, _ = run_cli(capsys, "--command", "norm", "--input", doc)
    assert code == 3
    assert json.loads(out)["error"]["diagnostics"] == [
        {"pointer": "/element", "message": "element must be real-valued in real-restricted mode"}
    ]


_REAL_L1 = {"kind": "lp", "dim": 2, "p": 1, "weights": [1, 1], "real": True}


@pytest.mark.parametrize("quantization, element", [
    ({"kind": "max", "params": {"base": {"kind": "euclidean", "dim": 2, "real": True}}},
     [[[1, 0], [2, 0]], [[0.5, 0], [-1, 0]]]),
    ({"kind": "tensor_p", "params": {"base": dict(_REAL_L1, p=3)}, "inner": {"kind": "hilbert", "dim": 2}},
     [[[1, 0], [2, 0], [0.5, 0], [-1, 0]]]),
])
def test_real_restricted_base_under_max_or_tensor_p_is_input_error(capsys, quantization, element):
    doc = norm_doc(quantization=quantization, element=element)
    code, out, _ = run_cli(capsys, "--command", "norm", "--input", doc)
    assert code == 3
    rep = json.loads(out)
    assert rep["outcome"] == "input-error"
    assert rep["error"]["diagnostics"][0]["pointer"] == "/quantization"
    assert "real-restricted" in rep["error"]["message"]


@pytest.mark.parametrize("command", ["pl", "l", "compare"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_real_restricted_factor_of_a_pair_job_is_input_error(capsys, command, side):
    doc = json.loads(pair_doc(element=[[[1, 0], [2, 0], [0.5, 0], [-1, 0]]]))
    doc[side] = {"kind": "min", "params": {"base": _REAL_L1}}
    code, out, _ = run_cli(capsys, "--command", command, "--input", json.dumps(doc))
    assert code == 3
    rep = json.loads(out)
    assert rep["outcome"] == "input-error"
    assert rep["error"]["diagnostics"][0]["pointer"] == "/" + side


def test_real_element_on_a_min_real_restricted_norm_job_passes(capsys):
    doc = norm_doc(quantization={"kind": "min", "params": {"base": _REAL_L1}}, element=[[[1, 0], [-2, 0]]])
    code, out, _ = run_cli(capsys, "--command", "norm", "--input", doc)
    assert code == 0
    assert json.loads(out)["cases"][0]["upper"] == pytest.approx(3.0, rel=1e-12)  # |1| + |-2|


@pytest.mark.parametrize("nested", [False, True])
def test_real_l1_beyond_the_sign_enumeration_is_input_error_from_two_rows(capsys, nested):
    """A real l1 min over 17 coordinates, also as an lp inner, takes a
    one-row element in closed form; a two-row one is reported at /element."""
    q = {"kind": "min", "params": {"base": {"kind": "lp", "dim": 17, "p": 1, "real": True}}}
    if nested:
        q = {"kind": "lp", "params": {"p": 1, "weights": [1, 1]}, "inner": q}
    row = [[(j % 5) - 2.0, 0] for j in range(17 * (1 + nested))]
    code, out, _ = run_cli(capsys, "--command", "norm", "--input", norm_doc(quantization=q, element=[row]))
    assert code == 0
    assert json.loads(out)["cases"][0]["exact"]
    doc = norm_doc(quantization=q, element=[row, row[::-1]])
    assert _input_error_pointer(capsys, "norm", doc) == "/element"


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


@pytest.mark.parametrize("command", ["pl", "l", "compare"])
def test_subnormal_entries_are_bracketed(capsys, command):
    """A 1e-320 entry beside a unit one, and a whole element at 1e-310, give
    finite certified brackets: no division overflows at a subnormal scale."""
    element = [[[1, 0], [0, 0], [0, 0], [1e-320, 0]]]
    code, out, _ = run_cli(capsys, "--command", command, "--input", pair_doc(element=element))
    assert code == 0
    tiny = [[[1e-310 * re, 1e-310 * im] for re, im in row] for row in json.loads(pair_doc())["element"]]
    code, out, _ = run_cli(capsys, "--command", command, "--input", pair_doc(element=tiny))
    assert code == 0
    brackets = [case for case in json.loads(out)["cases"] if "upper" in case]
    assert brackets and all(0.0 < c["lower"] <= c["upper"] < 1e-300 for c in brackets)


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
    """A document command without --input exits 3, pointing at the whole
    document."""
    for command in ("norm", "pl", "l", "compare"):
        code, out, _ = run_cli(capsys, "--command", command)
        assert code == 3
        diagnostics = json.loads(out)["error"]["diagnostics"]
        assert diagnostics == [{"pointer": "", "message": f"--command {command} requires --input"}]


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["--command", "norm", "--tolerance", "nan"], "--tolerance"),
        (["--command", "norm", "--tolerance", "inf"], "--tolerance"),
        (["--command", "norm", "--tolerance", "-0.001"], "--tolerance"),
        (["--command", "pl", "--budget", "-1"], "--budget"),
        (["--command", "l", "--seed", "-1"], "--seed"),
        (["--command", "verify-paper", "--n-max", "0"], "--n-max"),
        (["--command", "properties", "--trials", "0"], "--trials"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v,
)
def test_a_flag_out_of_range_is_input_error(capsys, argv, flag):
    """Flags are checked before any work: exit 3 and a diagnostic naming the flag."""
    if argv[1] in ("norm", "pl", "l"):
        argv = argv + ["--input", norm_doc() if argv[1] == "norm" else pair_doc()]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 3
    rep = json.loads(out)
    assert rep["outcome"] == "input-error" and rep["command"] == argv[1]
    [diagnostic] = rep["error"]["diagnostics"]
    assert diagnostic["pointer"] == "" and diagnostic["message"].startswith(flag + " must be")


def test_every_bad_flag_gets_a_diagnostic(capsys):
    code, out, _ = run_cli(capsys, "--command", "verify-paper", "--seed", "-2", "--budget", "-3")
    assert code == 3
    messages = [d["message"] for d in json.loads(out)["error"]["diagnostics"]]
    assert [m.split()[0] for m in messages] == ["--budget", "--seed"]


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["--command", "nope"], "--command"),
        (["--command", "norm", "--budget", "x"], "--budget"),
        (["--command", "norm", "--format", "xml"], "--format"),
        (["--budget", "10"], "--command"),
        (["--command", "norm", "--frobnicate"], "--frobnicate"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v,
)
def test_a_usage_error_is_input_error_not_the_gap_code(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    rep = json.loads(out)
    assert rep["outcome"] == "input-error" and rep["command"] is None
    assert flag in rep["error"]["diagnostics"][0]["message"]
    assert err.startswith("usage: pllab")


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as info:
        cli.main([flag])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: pllab" if flag == "--help" else "pllab ")


def test_a_nan_tolerance_cannot_pass_an_open_bracket(capsys):
    """The gap test compares against the tolerance, and every comparison with
    NaN is false; the flag check keeps NaN out."""
    U = random_complex(make_rng(1, "gapcase"), 2, 4)
    doc = pair_doc(element=[[complex_to_json(z) for z in row] for row in U])
    args = ("--command", "pl", "--input", doc, "--budget", "60")
    assert run_cli(capsys, *args)[0] == 2
    code, out, _ = run_cli(capsys, *args, "--tolerance", "nan")
    assert code == 3 and json.loads(out)["outcome"] == "input-error"


def test_a_seed_beyond_32_bits_is_its_own_stream(capsys):
    args = ("--command", "verify-paper", "--n-max", "2", "--budget", "60")
    low, high = (json.loads(run_cli(capsys, *args, "--seed", str(s))[1])["cases"] for s in (0, 2**32))
    assert low != high


def test_properties_with_one_trial_passes(capsys):
    """--trials 1 reports no violation: the lp1 falsifier still runs its
    structured trials and finds the known counterexample."""
    code, out, _ = run_cli(capsys, "--command", "properties", "--trials", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["outcome"] == "pass"
    assert {r["case"]: r["trials"] for r in rep["cases"]}["semi-ruan-violation/lp1"] == 4


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


def test_repro_line_parses_back_to_the_job(tmp_path):
    """The repro line of a failed case is a shell command that gives back the
    job: inline JSON with spaces and a file path with a space survive
    shlex.split."""
    path = tmp_path / "a job.json"
    path.write_text(pair_doc())
    assert " " in pair_doc()
    jobs = [
        ["--command", "compare", "--input", pair_doc(), "--budget", "60", "--seed", "7",
         "--tolerance", "1e-06"],
        ["--command", "pl", "--input", str(path), "--seed", "3"],
        ["--command", "verify-paper", "--n-max", "3", "--budget", "40"],
        ["--command", "properties", "--trials", "14", "--tolerance", "0.001"],
    ]
    ap = cli.build_parser()
    for argv in jobs:
        args = ap.parse_args(argv)
        words = shlex.split(cli._repro(args))
        assert words[0] == "pllab"
        back = ap.parse_args(words[1:])
        for key in ("command", "input", "budget", "seed", "tolerance"):
            assert getattr(back, key) == getattr(args, key), key
        if "--n-max" in argv:
            assert back.n_max == args.n_max
        if "--trials" in argv:
            assert back.trials == args.trials


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


def test_properties_command_rows_and_bytes(capsys):
    args = ("--command", "properties", "--trials", "14")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    rep = json.loads(out)
    assert rep["outcome"] == "pass"
    assert rep["parameters"]["trials"] == 14
    ids = [c["case"] for c in rep["cases"]]
    assert ids == sorted(ids)
    assert {"module-contractivity", "cross-norm", "semi-ruan-violation/lp1"} <= set(ids)
    assert len([i for i in ids if i.startswith("semi-ruan-pass/")]) == 5
    assert all(c["passed"] for c in rep["cases"])
    assert rep["summary"] == {"total": len(ids), "passed": len(ids), "failed": 0, "gaps": 0}
    assert run_cli(capsys, *args)[:2] == (code, out)


def test_compare_at_truncation_one_reports_the_underlying_overlap(capsys):
    """At d = 1 pl and l restrict to the same underlying norm, so the
    brackets overlap and compare adds that row."""
    element = [[[0.6, 0.0], [0.0, 0.8], [0.0, 0.0], [0.5, -0.5]]]
    code, out, _ = run_cli(capsys, "--command", "compare", "--input", pair_doc(element=element))
    assert code in (0, 2)
    cases = {c["case"]: c for c in json.loads(out)["cases"]}
    assert cases["underlying-overlap"]["passed"] is True
    assert cases["pl"]["lower"] <= cases["l"]["upper"] + 1e-9
    # no overlap row beyond truncation 1
    _, out, _ = run_cli(capsys, "--command", "compare", "--input", pair_doc())
    assert "underlying-overlap" not in {c["case"] for c in json.loads(out)["cases"]}
