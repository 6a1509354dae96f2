"""tools/census.py: the bracket floors of the probe grids and the compare command."""

import importlib.util
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parents[1]
# Closed brackets at least, per (grid, norm); a change that closes brackets raises these.
FLOORS = {("probe", "pl"): 21, ("probe", "l"): 4, ("swapped", "pl"): 21, ("swapped", "l"): 4}


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location("census", ROOT / "tools" / "census.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # the tool pins the BLAS thread counts at import
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def probe_grids(census):
    with mock.patch.object(sys, "path", list(sys.path)):
        return census.record(ROOT, ("probe", "swapped"))


def test_probe_grids_keep_their_closed_floors(census, probe_grids):
    summary = census.summary(probe_grids)
    assert {key: n for key, (_, n, _) in summary.items()} == {key: 39 for key in FLOORS}
    for key, floor in FLOORS.items():
        assert summary[key][0] >= floor, (key, summary[key])


def test_swapped_pl_brackets_agree_with_the_probe_grid(probe_grids):
    """Both tensor norms are commutative, and a max or l1 factor absorbs the
    other on either side, so exchanging the factors keeps each pl bracket."""
    probe, swapped = probe_grids["probe"], probe_grids["swapped"]
    assert probe.keys() == swapped.keys()
    for key in probe:
        x, y = probe[key]["pl"], swapped[key]["pl"]
        assert y["upper"] == pytest.approx(x["upper"], rel=1e-12, abs=0), key
        assert y["lower"] == pytest.approx(x["lower"], rel=1e-7, abs=0), key


def _bracket(lower, upper):
    return {"lower": lower, "upper": upper, "family": "columns", "certificate": "functional-pair",
            "gap_rel": (upper - lower) / upper, "closed": upper - lower <= 1e-9 * max(1.0, upper)}


def _write(path: Path, records: dict) -> str:
    path.write_text(json.dumps(records))
    return str(path)


def test_compare_exits_0_on_equal_files_and_prints_the_counts(census, tmp_path, capsys):
    records = {"probe": {"0/1": {"pl": _bracket(1.0, 1.0), "l": _bracket(0.5, 1.0)}}}
    a, b = _write(tmp_path / "a.json", records), _write(tmp_path / "b.json", records)
    assert census.main(["compare", a, b]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["probe", "pl", "closed", "1", "of", "1", "->", "1", "of", "1",
                              "mean", "gap/upper", "0.0000", "->", "0.0000"]
    assert out[1].split()[:10] == ["probe", "l", "closed", "0", "of", "1", "->", "0", "of", "1"]
    assert out[-1].startswith("0 brackets")


def test_compare_lists_a_fallen_lower_and_a_risen_upper(census, tmp_path, capsys):
    a = {"probe": {"0/1": {"pl": _bracket(1.0, 2.0)}, "0/2": {"pl": _bracket(1.0, 2.0)},
                   "0/3": {"pl": _bracket(1.0, 2.0)}}}
    b = {"probe": {"0/1": {"pl": _bracket(1.0 - 1e-9, 2.0)}, "0/2": {"pl": _bracket(1.0, 2.0 + 1e-9)},
                   "0/3": {"pl": _bracket(1.0 - 1e-13, 2.0 + 1e-13)}}}
    assert census.main(["compare", _write(tmp_path / "a.json", a), _write(tmp_path / "b.json", b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("probe/0/1 pl: lower fell")
    assert out[2].startswith("probe/0/2 pl: upper rose")
    assert out[3].startswith("2 brackets")
