"""Tests of the benchmark itself: inputs, checks, span arithmetic, tracing.

    python3 -m pytest -q bench/tests
"""

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _fingerprint(ops) -> str:
    def enc(x):
        if isinstance(x, np.ndarray):
            return [enc(v) for v in x.ravel().tolist()] + list(x.shape)
        if isinstance(x, complex):
            return [x.real, x.imag]
        if isinstance(x, (list, tuple)):
            return [enc(v) for v in x]
        if isinstance(x, dict):
            return {k: enc(v) for k, v in x.items()}
        if isinstance(x, set):
            return sorted(x)
        return x

    return json.dumps([[op.kind, enc(op.args), op.expected, op.info] for op in ops], sort_keys=True)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_round_is_deterministic_for_a_seed(workload):
    a = _fingerprint(wl.make_round(workload, 7))
    assert a == _fingerprint(wl.make_round(workload, 7))
    assert a != _fingerprint(wl.make_round(workload, 8))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_round_structure_does_not_depend_on_the_seed(workload):
    shape = lambda ops: [(op.kind, op.info) for op in ops]  # noqa: E731
    assert shape(wl.make_round(workload, 1)) == shape(wl.make_round(workload, 2))


def _spans(rows):
    """rows: (name, parent, op, start, end)."""
    names = sorted({r[0] for r in rows})
    return {
        "names": names,
        "name": np.array([names.index(r[0]) for r in rows], dtype=np.int32),
        "parent": np.array([r[1] for r in rows], dtype=np.int32),
        "op": np.array([r[2] for r in rows], dtype=np.int32),
        "start": np.array([r[3] for r in rows], dtype=float),
        "end": np.array([r[4] for r in rows], dtype=float),
    }


def test_self_time_subtracts_the_children_only():
    spans = _spans([
        ("root", -1, 0, 0.0, 10.0),
        ("a", 0, 0, 1.0, 4.0),
        ("b", 0, 0, 5.0, 9.0),
        ("c", 2, 0, 6.0, 7.0),
        ("other", -1, 1, 20.0, 22.0),
    ])
    np.testing.assert_allclose(tracing.self_times(spans), [3.0, 3.0, 3.0, 1.0, 2.0])


def test_per_layer_means_and_screen_spans():
    l_br, sr = "tensorlab.l_norm_bracket", "quantizations.semi_ruan_witness_search"
    spans = _spans([
        (l_br, -1, tracing.SETUP_OP, 0.0, 5.0),
        (sr, 0, tracing.SETUP_OP, 1.0, 4.0),
        (l_br, -1, 0, 10.0, 12.0),
        ("quantizations.amp_norm.hilbert", 2, 0, 10.5, 11.0),
        (sr, -1, 1, 20.0, 21.0),  # not under an l bracket: not the l screen
    ])
    layers = tracing.per_layer(spans, {}, [2.5, 1.5], [1.0, 1.0])
    assert layers["tensorlab.l_norm_bracket.calls"] == (0.5, "count/op")
    assert layers["tensorlab.l_norm_bracket.self_s"] == (0.75, "s/op")
    assert layers["quantizations.amp_norm.hilbert.self_s"] == (0.25, "s/op")
    assert layers["tensorlab.l_screen.setup_calls"] == (1.0, "count")
    assert layers["tensorlab.l_screen.setup_s"] == (3.0, "s")
    assert layers["tensorlab.l_screen.calls"][0] == 0.0
    assert layers["bench.self_over_wall_max"][0] == pytest.approx(2.0 / 2.5)


def test_merge_offsets_parents_and_names():
    into = tracing.empty_spans()
    tracing.merge(into, _spans([("x", -1, 0, 0.0, 2.0), ("y", 0, 0, 0.5, 1.0)]), 0)
    tracing.merge(into, _spans([("y", -1, 0, 3.0, 4.0), ("z", 0, 0, 3.5, 3.6)]), 1)
    assert list(into["parent"]) == [-1, 0, -1, 2]
    assert [into["names"][i] for i in into["name"]] == ["x", "y", "y", "z"]
    assert list(into["op"]) == [0, 0, 1, 1]


def test_install_wraps_every_binding_and_undo_restores_them():
    import pllab
    import pllab.cli  # noqa: F401  (install imports every module; snapshot them all)
    import pllab.tensorlab

    before = tracing.bindings()
    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        assert tracing.bindings() != before
        assert pllab.amp_norm is not pllab.tensorlab.amp_norm  # one wrapper per binding site
        E = pllab.Quantization.hilbert(2)
        rec.op_id = 0
        pllab.pl_norm_bracket(E, E, np.eye(2, dtype=complex).reshape(1, 4), budget=20)
    finally:
        undo()
    assert tracing.bindings() == before
    names = set(rec.names)
    assert "tensorlab.pl_norm_bracket" in names and "quantizations.amp_norm.hilbert" in names
    assert rec.counts["tensorlab.brackets"] == 1
    assert rec.counts["quantizations.amp_norm.from_tensorlab"] > 0


class _Bracket(SimpleNamespace):
    pass


def test_wrong_bracket_counts_as_failed():
    op = wl.Op("pl", {}, expected=2.0)
    assert wl.check(op, _Bracket(lower=2.0, upper=2.0 + 1e-12))[0]
    assert not wl.check(op, _Bracket(lower=2.0, upper=2.1))[0]  # known value missed
    assert not wl.check(wl.Op("l", {}), _Bracket(lower=1.5, upper=1.0))[0]  # lower above upper
    verdicts = ["ok", "wrong", "ok", "raised"]
    metrics, _ = run.summarize([0.1] * 4, verdicts, 4, [0.0, 0.0], [1.0], 10.0, 50.0)
    assert metrics["ok_share"] == (0.5, "share")


def test_cli_check_wants_the_documented_exit_code():
    op = wl.Op("cli", {"argv": [], "expect_exit": {3}})
    good = json.dumps({"outcome": "input-error"})
    assert wl.check_cli(op, 3, good) == ("ok", None)
    assert wl.check_cli(op, 0, json.dumps({"outcome": "pass"}))[0] == "wrong"
    assert wl.check_cli(op, 1, "Traceback ...")[0] == "raised"


def test_amp_references_match_pllab_on_exact_kinds():
    runner = wl.Runner()
    ops = [op for op in wl.make_round("amp-sweep", 3)[:42] if wl.reference_amp(op.args["q"], op.args["U"])]
    assert {op.args["q"]["kind"] for op in ops} == {"min", "hilbert", "concrete"}
    for op in ops:
        assert wl.check(op, runner.prepare(op)(0))[0]


def test_launcher_stdout_is_byte_identical(tmp_path):
    doc = {
        "schema_version": "1",
        "left": {"kind": "hilbert", "dim": 2},
        "right": {"kind": "hilbert", "dim": 2},
        "element": [[[1, 0], [0, 0], [0, 0], [1, 0]]],
    }
    argv = ["--command", "pl", "--input", json.dumps(doc), "--budget", "40"]
    env = run.pinned_env()
    plain = subprocess.run([sys.executable, "-m", "pllab.cli"] + argv, cwd=ROOT, env=env,
                           capture_output=True, timeout=120)
    span_file = tmp_path / "spans.npz"
    traced = subprocess.run([sys.executable, str(BENCH / "launcher.py"), str(span_file)] + argv,
                            cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert plain.returncode == traced.returncode == 0
    assert plain.stdout == traced.stdout
    spans, meta = tracing.load(span_file)
    assert "cli.main" in spans["names"] and meta["import_s"] > 0


def test_run_refuses_a_directory_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in ("run.py", "workloads.py", "tracing.py", "worker.py", "launcher.py", "speed.py"):
        (tmp_path / "bench" / f).write_bytes((BENCH / f).read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "amp-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == b""


def test_speed_scale_uses_the_nearest_probes():
    from speed import REFERENCE_PROBE_S, SpeedLog

    log = SpeedLog.from_json([[float(t) for t in range(10)], [0.01] * 5 + [0.02] * 5])
    assert log.scale(0.0) == pytest.approx(REFERENCE_PROBE_S / 0.01)
    assert log.scale(9.5) == pytest.approx(REFERENCE_PROBE_S / 0.02)
    assert log.overall_scale() == pytest.approx(REFERENCE_PROBE_S / 0.015)
