"""tools/identity.py: the digests and the compare command."""

import hashlib
import importlib.util
import json
import os
from pathlib import Path
from unittest import mock

import pytest


@pytest.fixture(scope="module")
def identity():
    path = Path(__file__).resolve().parents[1] / "tools" / "identity.py"
    spec = importlib.util.spec_from_file_location("identity", path)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # the tool pins the BLAS thread counts at import
        spec.loader.exec_module(module)
    return module


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_digest_rounds_float_literals_and_leaves_names(identity):
    obj = ("lp1.50w", "w2e3", 1 / 3, 2.50, "3e0")
    full, rounded = identity._digest(obj)
    assert full == _sha(repr(obj))
    assert identity.ROUND_DIGITS == 12
    assert rounded == _sha("('lp1.50w', 'w2e3', 0.333333333333, 2.5, '3')")


def _write(path: Path, records: dict) -> str:
    path.write_text(json.dumps(records))
    return str(path)


def test_compare_exits_0_on_equal_files(identity, tmp_path, capsys):
    records = {"pairs/0/1": ["a", "b"], "amp-sweep/1/0": ["c", "d"]}
    a, b = _write(tmp_path / "a.json", records), _write(tmp_path / "b.json", records)
    assert identity.main(["compare", a, b]) == 0
    assert "0 of 2 records differ" in capsys.readouterr().out


def test_compare_counts_a_changed_and_a_missing_key(identity, tmp_path, capsys):
    a = _write(tmp_path / "a.json", {"pairs/0/1": ["a", "b"], "pairs/0/2": ["c", "d"], "tp/lp3/2": ["e", "f"]})
    b = _write(tmp_path / "b.json", {"pairs/0/1": ["a2", "b"], "tp/lp3/2": ["e", "f"]})
    assert identity.main(["compare", a, b]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["pairs/0/1", "pairs/0/2"]
    assert out[2] == "2 of 3 records differ, 1 of them agree at 12 significant digits"
    assert out[3].split() == ["2", "differ", "1", "agree", "pairs/0"]
