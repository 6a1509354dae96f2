"""The wire format: golden descriptors and reports, and codec round trips.

The data under tests/data/ was recorded before the codecs were merged into
pllab.wire; the serialized descriptors must match it exactly and the CLI
reports must match it up to float rounding (rel 1e-12).  Regenerate it only
when the wire format is meant to change, one file at a time:
``PYTHONPATH=src python tests/test_wire.py descriptors`` rewrites
wire_descriptors.json, ``... reports`` wire_reports.json, and both names
rewrite both.
"""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pllab import cli
from pllab.maps import builtin_certificates
from pllab.quantizations import Quantization
from pllab.sampling import make_rng, random_complex
from pllab.suites import quantization_pool
from pllab.wire import matrix_from_json, matrix_to_json
from test_tensorlab import _factor_pairs

DATA = pathlib.Path(__file__).parent / "data"
DESCRIPTORS = DATA / "wire_descriptors.json"
REPORTS = DATA / "wire_reports.json"

# factor pairs of _factor_pairs() whose compare reports are pinned: a
# projective max base, a tensor_p left factor and concrete generators
_COMPARE_PAIRS = (4, 11, 12)


def _descriptors() -> dict:
    return {
        "pool": [q.to_dict() for q in quantization_pool()],
        "certificates": [
            [cert.to_dict() for cert in builtin_certificates(E, F)] for E, F in _factor_pairs()
        ],
    }


def _jobs() -> list:
    jobs = [["--command", "verify-paper", "--n-max", "3"]]
    pairs = _factor_pairs()
    for i in _COMPARE_PAIRS:
        E, F = pairs[i]
        U = random_complex(make_rng(0, "wire-golden", i), 2, E.dim * F.dim)
        doc = {
            "schema_version": "1",
            "label": f"pair-{i}",
            "left": E.to_dict(),
            "right": F.to_dict(),
            "element": matrix_to_json(U),
        }
        jobs.append(["--command", "compare", "--input", json.dumps(doc)])
    return jobs


def _report(capsys, argv) -> dict:
    cli.main(list(argv))
    return json.loads(capsys.readouterr().out)


def _assert_same(got, want, rel, path="$"):
    """Equal structure, types and non-float values; floats to the given rel."""
    assert type(got) is type(want), f"{path}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{path}: keys differ"
        for k in want:
            _assert_same(got[k], want[k], rel, f"{path}/{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, rel, f"{path}/{i}")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=rel, abs=0), path
    else:
        assert got == want, path


# -- golden ------------------------------------------------------------------


def test_descriptors_match_golden():
    _assert_same(_descriptors(), json.loads(DESCRIPTORS.read_text()), rel=0)


@pytest.mark.parametrize("i", range(1 + len(_COMPARE_PAIRS)))
def test_cli_reports_match_golden(capsys, i):
    golden = json.loads(REPORTS.read_text())[i]
    argv = _jobs()[i]
    assert argv == golden["argv"]
    _assert_same(_report(capsys, argv), golden["report"], rel=1e-12)


# -- round trips ---------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        np.complex128,
        hnp.array_shapes(min_dims=2, max_dims=2, max_side=4),
        elements=st.complex_numbers(allow_nan=False, allow_infinity=False),
    )
)
def test_matrix_round_trip(M):
    back = matrix_from_json(json.loads(json.dumps(matrix_to_json(M))))
    assert back.dtype == complex and back.shape == M.shape
    assert np.array_equal(back, M)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1.0, 2.5, np.inf]),
    st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=1, max_size=4),
    st.sampled_from([None, 1, 2]),
)
def test_lp_descriptor_round_trip(p, weights, inner_dim):
    inner = None if inner_dim is None else Quantization.hilbert(inner_dim)
    q = Quantization.lp(p, weights, inner=inner)
    d = json.loads(json.dumps(q.to_dict(), allow_nan=False))
    back = Quantization.from_dict(d)
    assert back.to_dict() == q.to_dict()
    assert back.p == q.p and np.array_equal(back.weights, q.weights)
    assert back.inner.to_dict() == q.inner.to_dict()


def _record(names):
    """Write the named golden files, "descriptors" and "reports", from the current code."""
    import contextlib
    import io

    DATA.mkdir(exist_ok=True)
    if "descriptors" in names:
        DESCRIPTORS.write_text(json.dumps(_descriptors(), indent=1) + "\n")
    if "reports" in names:
        reports = []
        for argv in _jobs():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                cli.main(list(argv))
            reports.append({"argv": argv, "report": json.loads(out.getvalue())})
        REPORTS.write_text(json.dumps(reports, indent=1) + "\n")


if __name__ == "__main__":
    import sys

    names = sys.argv[1:]
    if not names or set(names) - {"descriptors", "reports"}:
        sys.exit("usage: python tests/test_wire.py {descriptors,reports} ...")
    _record(names)
