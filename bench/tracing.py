"""Spans recorded around pllab's public functions, from outside the package.

``install`` rebinds each function listed in TARGETS in every pllab module
that holds it (``amp_norm`` is bound in quantizations, tensorlab, maps,
suites and cli), and each listed method on its class.  Nothing under src/
changes.  The untraced benchmark never calls ``install``.

A span records its name, start, end, parent and the operation it belongs to.
Spans stay in memory in flat arrays until the run ends.  Self time is a
span's duration minus the part its children cover; the benchmark runs one
thread (PLLAB_THREADS=1), so children never overlap and that part is the sum
of their durations.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from array import array
from typing import Callable, NamedTuple, Optional

import numpy as np

SETUP_OP = -1  # operation id of spans recorded during set-up

FAMILIES = (
    "columns", "svd-split", "left-unfold", "right-unfold",
    "identity-block", "projective-left", "projective-right", "refined",
)
CERTIFICATES = (
    "functional-pair", "coordinate-multiplication-l1", "coordinate-multiplication-l2",
    "hilbert-tensor-embedding", "max-tensor-identity", "l1-reshape",
)
KINDS = ("min", "max", "lp", "hilbert", "concrete", "tensor_p")
DUAL_PATHS = ("closed", "l1_ascent", "lq_ascent")


class Recorder:
    """In-memory span log of one process (single thread)."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict = {}
        self.op_id = SETUP_OP
        self._open: list = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.op.append(self.op_id)
        self.end.append(math.nan)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def count(self, key: str) -> None:
        """Count an outcome; only operations of the timed phase are counted."""
        if self.op_id != SETUP_OP:
            self.counts[key] = self.counts.get(key, 0) + 1

    def spans(self) -> dict:
        """The span log as numpy arrays, with the table of span names."""
        return {
            "names": list(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


# -- what is wrapped, and how its spans are labelled -------------------------------


def _dual_path(base, *args, **kwargs) -> str:
    """Which branch of BaseNorm.dual_ball_maximize the descriptor selects."""
    if base.kind == "lp" and base.p == 1.0 and not base.real and base.dim > 1:
        return "l1_ascent"
    if base.kind == "lp" and base.p not in (1.0, 2.0) and not math.isinf(base.p):
        return "lq_ascent"
    return "closed"


def _bracket_sources(rec: Recorder, bracket) -> None:
    family = str(bracket.details.get("method", "")).removesuffix("+orth")
    rec.count("tensorlab.brackets")
    rec.count(f"tensorlab.upper_from.{family}")
    cert = bracket.lower_witness.get("certificate")
    if cert is not None:
        rec.count(f"maps.lower_from.{cert}")


def _refine_win(rec: Recorder, res) -> None:
    rec.count("projective.proj_bracket.results")
    if "+refine" in res.upper_method:
        rec.count("projective.proj_bracket.refine_wins")


def _bracketed(rec: Recorder, nv) -> None:
    rec.count("quantizations.amp_norm.results")
    if not nv.exact:
        rec.count("quantizations.amp_norm.bracketed")


class Target(NamedTuple):
    """A function or method to trace, and how its spans are labelled."""

    module: str
    attr: str  # a function, or Class.method
    name: str  # span name
    label: Optional[Callable] = None  # (args) -> suffix of the span name
    observe: Optional[Callable] = None  # (recorder, result) -> counts outcomes
    sites: bool = False  # count calls by the module whose binding was called


TARGETS = [
    Target("pllab.cli", "main", "cli.main"),
    Target("pllab.jsonio", "parse_norm_job", "jsonio.parse_norm_job"),
    Target("pllab.jsonio", "parse_pair_job", "jsonio.parse_pair_job"),
    Target("pllab.jsonio", "render_json", "jsonio.render_json"),
    Target("pllab.suites", "verify_paper_suite", "suites.verify_paper_suite"),
    Target("pllab.tensorlab", "pl_norm_bracket", "tensorlab.pl_norm_bracket",
           observe=_bracket_sources),
    Target("pllab.tensorlab", "l_norm_bracket", "tensorlab.l_norm_bracket",
           observe=_bracket_sources),
    Target("pllab.tensorlab", "orthogonalize_representation",
           "tensorlab.orthogonalize_representation"),
    Target("pllab.tensorlab", "compare_pl_l", "tensorlab.compare_pl_l"),
    Target("pllab.maps", "lb_norm_lower", "maps.lb_norm_lower"),
    Target("pllab.maps", "Certificate.evaluate_lower", "maps.certificate",
           label=lambda cert, *a, **k: cert.name),
    Target("pllab.projective", "proj_bracket", "projective.proj_bracket", observe=_refine_win),
    Target("pllab.quantizations", "amp_norm", "quantizations.amp_norm",
           label=lambda q, *a, **k: q.kind, observe=_bracketed, sites=True),
    Target("pllab.quantizations", "semi_ruan_witness_search",
           "quantizations.semi_ruan_witness_search"),
    Target("pllab.bases", "BaseNorm.dual_ball_maximize", "bases.dual_ball_maximize",
           label=_dual_path),
    Target("pllab.bases", "BaseNorm.primal_ball_maximize", "bases.primal_ball_maximize"),
    Target("pllab.hilbert", "diamond_amp", "hilbert.diamond_amp"),
    Target("pllab.hilbert", "op_norm", "hilbert.op_norm"),
    Target("pllab.sampling", "make_rng", "sampling.make_rng"),
]


def _wrap(rec: Recorder, fn, name: str, label, observe, site: str = None):
    site_key = f"{name}.from_{site}" if site else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if site_key:
            rec.count(site_key)
        idx = rec.open(name if label is None else f"{name}.{label(*args, **kwargs)}")
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if observe is not None:
            observe(rec, out)
        return out

    return traced


def _pllab_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "pllab" or n.startswith("pllab.")]


def install(rec: Recorder):
    """Rebind every target to a traced wrapper; returns a function that undoes it."""
    import pllab.cli  # noqa: F401  (imports every pllab module)

    undo = []
    modules = _pllab_modules()
    for t in TARGETS:
        home = sys.modules[t.module]
        if "." in t.attr:
            cls_name, meth = t.attr.split(".")
            cls = getattr(home, cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, _wrap(rec, fn, t.name, t.label, t.observe))
            undo.append((cls, meth, fn))
            continue
        fn = getattr(home, t.attr)
        for mod in modules:
            for binding, value in list(vars(mod).items()):
                if value is fn:
                    site = mod.__name__.rsplit(".", 1)[-1] if t.sites else None
                    setattr(mod, binding, _wrap(rec, fn, t.name, t.label, t.observe, site))
                    undo.append((mod, binding, fn))

    def uninstall():
        for owner, binding, fn in reversed(undo):
            setattr(owner, binding, fn)

    return uninstall


def bindings() -> dict:
    """Identity of every attribute of every pllab module and class, to show
    that the untraced run leaves them as they were."""
    out = {}
    for mod in _pllab_modules():
        for binding, value in vars(mod).items():
            out[(mod.__name__, binding)] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, fn in vars(value).items():
                    out[(mod.__name__, f"{binding}.{meth}")] = id(fn)
    return out


# -- from spans to per-layer metrics ----------------------------------------------------


def self_times(spans: dict) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - covered


def empty_spans() -> dict:
    return {
        "names": [],
        "name": np.empty(0, dtype=np.int32),
        "parent": np.empty(0, dtype=np.int32),
        "op": np.empty(0, dtype=np.int32),
        "start": np.empty(0),
        "end": np.empty(0),
    }


def merge(into: dict, spans: dict, op_id: int) -> None:
    """Append another process's span log to ``into``, under one operation id."""
    names = into["names"]
    for n in spans["names"]:
        if n not in names:
            names.append(n)
    remap = np.array([names.index(n) for n in spans["names"]] + [0], dtype=np.int32)
    offset = into["start"].size
    into["name"] = np.concatenate([into["name"], remap[spans["name"]]])
    into["parent"] = np.concatenate(
        [into["parent"], np.where(spans["parent"] >= 0, spans["parent"] + offset, -1).astype(np.int32)]
    )
    into["op"] = np.concatenate([into["op"], np.full(spans["op"].size, op_id, dtype=np.int32)])
    into["start"] = np.concatenate([into["start"], spans["start"]])
    into["end"] = np.concatenate([into["end"], spans["end"]])


def per_layer(spans: dict, counts: dict, op_walls: list, op_scales: list,
              setup_scale: float = 1.0, import_s: float = 0.0) -> dict:
    """Per-layer metrics, per operation of the timed phase.

    ``calls`` and ``self_s`` are means per timed operation; shares are
    taken over the outcomes counted at each boundary.  Span times are scaled
    like the end-to-end timings: by ``op_scales[op]`` for the spans of an
    operation, by ``setup_scale`` for set-up spans (see speed.py).
    ``op_walls`` are the scaled operation times and ``import_s`` the scaled
    mean time a CLI job took to import pllab.cli.
    """
    names = spans["names"]
    n_ops = max(len(op_walls), 1)
    timed = spans["op"] >= 0
    scales = np.append(np.asarray(op_scales, dtype=float), setup_scale)
    span_scale = scales[np.where(timed, spans["op"], -1)]
    self_s = self_times(spans) * span_scale
    ids = spans["name"]
    calls_by = np.bincount(ids[timed], minlength=len(names))
    self_by = np.bincount(ids[timed], weights=self_s[timed], minlength=len(names))
    index = {n: i for i, n in enumerate(names)}
    out = {}

    def stat(span: str, calls: bool = True):
        i = index.get(span)
        if calls:
            out[f"{span}.calls"] = (float(calls_by[i]) / n_ops if i is not None else 0.0, "count/op")
        out[f"{span}.self_s"] = (float(self_by[i]) / n_ops if i is not None else 0.0, "s/op")

    def share(num: str, den: str):
        d = counts.get(den, 0)
        return (counts.get(num, 0) / d if d else 0.0, "share")

    out["cli.import_s"] = (import_s, "s/op")
    stat("cli.main", calls=False)
    for fn in ("parse_norm_job", "parse_pair_job", "render_json"):
        stat(f"jsonio.{fn}")
    stat("suites.verify_paper_suite", calls=False)
    for fn in ("pl_norm_bracket", "l_norm_bracket", "orthogonalize_representation"):
        stat(f"tensorlab.{fn}")
    stat("tensorlab.compare_pl_l", calls=False)

    # the semi-Ruan screen of the l pool: search spans directly under an l bracket
    dur = (spans["end"] - spans["start"]) * span_scale
    parent = spans["parent"]
    sr, lb = index.get("quantizations.semi_ruan_witness_search"), index.get("tensorlab.l_norm_bracket")
    screen = np.zeros(ids.size, dtype=bool)
    if sr is not None and lb is not None:
        screen = (ids == sr) & (parent >= 0)
        screen[screen] = ids[parent[screen]] == lb
    out["tensorlab.l_screen.calls"] = (float(np.sum(screen & timed)) / n_ops, "count/op")
    out["tensorlab.l_screen.total_s"] = (float(np.sum(dur[screen & timed])) / n_ops, "s/op")
    out["tensorlab.l_screen.setup_calls"] = (float(np.sum(screen & ~timed)), "count")
    out["tensorlab.l_screen.setup_s"] = (float(np.sum(dur[screen & ~timed])), "s")

    for fam in FAMILIES:
        out[f"tensorlab.upper_from.{fam}"] = share(f"tensorlab.upper_from.{fam}", "tensorlab.brackets")
    for cert in CERTIFICATES:
        stat(f"maps.certificate.{cert}")
    for cert in CERTIFICATES:
        out[f"maps.lower_from.{cert}"] = share(f"maps.lower_from.{cert}", "tensorlab.brackets")
    stat("maps.lb_norm_lower")
    stat("projective.proj_bracket")
    out["projective.proj_bracket.refine_win_share"] = share(
        "projective.proj_bracket.refine_wins", "projective.proj_bracket.results"
    )
    for kind in KINDS:
        stat(f"quantizations.amp_norm.{kind}")
    for site in ("tensorlab", "maps"):
        key = f"quantizations.amp_norm.from_{site}"
        out[f"{key}.calls"] = (counts.get(key, 0) / n_ops, "count/op")
    out["quantizations.amp_norm.bracketed_share"] = share(
        "quantizations.amp_norm.bracketed", "quantizations.amp_norm.results"
    )
    stat("quantizations.semi_ruan_witness_search")
    for path in DUAL_PATHS:
        stat(f"bases.dual_ball_maximize.{path}")
    stat("bases.primal_ball_maximize")
    stat("hilbert.diamond_amp")
    stat("hilbert.op_norm")
    stat("sampling.make_rng")

    # the check that the self times of an operation add up to no more than
    # its wall time
    covered = np.bincount(spans["op"][timed], weights=self_s[timed], minlength=n_ops)[:n_ops]
    walls = np.asarray(op_walls, dtype=float) if op_walls else np.ones(1)
    out["bench.self_over_wall_max"] = (float(np.max(covered / walls)), "ratio")
    out["bench.spans_per_op"] = (float(np.sum(timed)) / n_ops, "count/op")
    return out


def save(path: str, spans: dict, meta: dict) -> None:
    """Write a span log and its process's counters (JSON in ``meta``)."""
    arrays = {k: v for k, v in spans.items() if k != "names"}
    np.savez(path, names=np.array(spans["names"], dtype=str), meta=np.array(json.dumps(meta)), **arrays)


def load(path: str) -> tuple:
    with np.load(path) as data:
        spans = {k: data[k] for k in ("name", "parent", "op", "start", "end")}
        spans["names"] = [str(n) for n in data["names"]]
        meta = json.loads(str(data["meta"]))
    return spans, meta
