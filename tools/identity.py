"""Identity check: fingerprints of pllab's outputs on fixed inputs.

    python3 tools/identity.py record ROOT OUT
    python3 tools/identity.py compare A B

``record`` imports pllab from ROOT/src and the benchmark inputs from
ROOT/bench, runs the fixed record set below, and writes OUT, a JSON object
mapping each record key to two sha256 digests: of the record's ``repr``
(numpy prints at full precision, with no summarizing), and of that ``repr``
with every float literal rounded to ``ROUND_DIGITS`` significant digits.
The records:

* every operation output, witnesses and ``to_dict()`` included, of the
  ``bracket-batch``, ``amp-sweep`` and ``lb-search`` rounds for seeds 1 and 2,
  at the benchmark's own operation seeds;
* the exit code and stdout of every ``cli-jobs`` job for seeds 1 and 2, each
  in a fresh ``python3 -m pllab.cli`` process;
* pl and l ``to_dict()``, their residuals and ``compare_pl_l`` over the
  benchmark pairs x d = 1..3 x scales 1, 1e12, 1e-9, 1e-310 (subnormal) x
  both pairings (a raised error is recorded as its message), and apart from
  them, as ``labels/...`` records, the pl and l ``upper_witness.label`` and
  certificate, so ``compare`` tells a flipped winner from a last-bit change;
* ``builtin_certificates`` ``to_dict()`` and map tensors over every pair of
  ``quantization_pool()`` descriptors;
* ``functional-pair/<i>/<j>/<d>``: the value and both functionals of the
  ``functional-pair`` certificate over every ordered pair of
  ``quantization_pool()`` descriptors at d = 1..3 rows, the alternating
  search on lp-over-inner, polytope, ``tensor_p`` and ``concrete`` factors
  on either side;
* ``proj_bracket`` upper, lower, method and terms against the euclidean
  factor on the bases of ``PROJ_BASES``, 20 elements for each n = 2..4
  factor coordinates: bases where the refinement search wins;
* ``tensor_p_bracket`` upper, lower, method and terms over the ``TP_INNER``
  inner on the lp3 and polytope bases, 5 elements for each n = 2, 3 rows at
  budget 200: an inner without a Frobenius metric, whose every factor
  evaluation is one valuation step drawing from the shared generator;
* ``dual_ball_maximize`` lower, upper, exact and witness on complex
  weighted-l1 and weighted-l3 bases, 10 elements for each m = 2..4 base
  coordinates and 1..3 rows: the l1 closed forms at one row or two
  coordinates, the l1 phase ascent elsewhere, and the lq ascent; and on
  real weighted-l1 bases at one row, 10 elements for each m = 1..4 and one
  at m = 17 (a raised error is recorded as its message);
* ``dual-stack/<base>/<rows>``: ``dual_ball_maximize`` lower, upper, exact
  and witnesses on 3-matrix stacks, four stacks each, on the complex l1 and
  l3 bases above and the real l1 bases at m = 1..4, at 1..3 rows: every l1
  and lq rule as it runs a stack;
* ``admission/<base>/<scale>``: the accept verdict, or the reject message,
  of ``BaseNorm.norm``, ``dual_ball_maximize`` and ``amp_norm`` of ``min``
  on each real base kind of ``REAL_BASES``, for a complex element and a
  real one with imaginary noise 1e-14 times the scale, at the scales of
  ``ADMISSION_SCALES``: the real-mode rule apart from any output digits;
* the lb-norm paths no benchmark round reaches, over the ``LB_SOURCES``
  spaces: ``underlying_dual_norm`` and ``underlying_dual_maximize`` (lp over
  hilbert, min and concrete inners, tensor_p, concrete), and
  ``lb_norm_lower`` lower, exact, method and witness, with closed forms on
  and off, for functionals and linear maps on each space, rank-1 and rank-2
  scalar bilinear maps on every ordered pair of spaces, embeddings, and the
  bilinear maps of the hilbert x hilbert certificates;
* ``lb/zero/<space>/<map>``: the same for the zero functional, the zero
  linear map into hilbert(2), the zero scalar bilinear map on the space
  twice and the zero map shaped as its l1 ``embedding_map``, on the
  hilbert, min-lp3 and tp-l1 spaces: a search that finds no positive ratio;
* ``lb/functional-pool/<k>/<i>``: ``lb_norm_lower`` lower, exact, method
  and witness, closed forms off, of 3 seeded functionals on each
  ``quantization_pool()`` descriptor: the functional search on every kind;
* ``lower/<key>``: beside each record above that holds ``lb_norm_lower``
  results (the ``lb-search`` operations and the ``lb/functional``,
  ``lb/linear``, ``lb/functional-pool``, ``lb/bilinear``, ``lb/embedding``,
  ``lb/certificate`` and ``lb/zero`` records), its lowers alone, each as
  ``float(lower)``, so ``compare`` tells a moved lower from a change of
  ``exact``, ``method``, witness or only the type of a lower, which the
  full record's ``repr`` still shows;
* ``amp/lp-range/<p>/<scale>``: ``amp_norm`` value, lower, exact and method
  of ``lp(p, LP_RANGE_WEIGHTS)`` over the scalar inner and over
  ``hilbert(2)``, at d = 1..3 rows, for each p of ``LP_RANGE_P`` and
  elements at each scale of ``LP_RANGE_SCALES``: weights over 300 decades,
  so the point norms are combined through both branches of ``lp_sum``;
* the ``verify_paper_suite(n_max=3)`` rows;
* the ``properties_suite(trials=50)`` rows (the property sweeps and the
  semi-Ruan searches) and the ``certificate_sweep(pairs=40)`` summary and
  violations.

``compare`` lists the keys whose full-precision digests differ, or that
only one file has, then counts them per group of the first two key segments
(such as ``pairs/11`` or ``bracket-batch/1``), with how many of them still
agree at ``ROUND_DIGITS`` significant digits, and exits 1 when there are any.
Record a tree before a change and again after it; equal files mean every
record is bit-identical, and a change that moves outputs by rounding only
shows every differing record as agreeing.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import itertools
import json
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

SEEDS = (1, 2)
ROUND_DIGITS = 12
_FLOAT = re.compile(r"(?<![\w.])(?:\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+)")  # not inside a name like lp1.5w
IN_PROCESS = ("bracket-batch", "amp-sweep", "lb-search")
SCALES = (1.0, 1e12, 1e-9, 1e-310)
PROJ_BASES = {  # name -> BaseNorm.from_dict descriptor
    "lp3": {"kind": "lp", "dim": 3, "p": 3.0},
    "lp1.5w": {"kind": "lp", "dim": 3, "p": 1.5, "weights": [1.0, 0.5, 2.0]},
    "linf": {"kind": "lp", "dim": 3, "p": "inf"},
    "polytope": {"kind": "polytope", "dim": 3, "vertices": [
        [[s * v, 0.0] for v in row] for s in (1, -1) for row in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1])]},
}
REAL_BASES = {  # name -> real-restricted BaseNorm.from_dict descriptor
    "euclidean": {"kind": "euclidean", "dim": 2, "real": True},
    **{f"lp{p}": {"kind": "lp", "dim": 2, "p": p, "weights": [1.0, 0.5], "real": True} for p in (1, 2, 3, "inf")},
    "polytope": {"kind": "polytope", "dim": 2, "real": True, "vertices": [
        [[s * v, 0.0] for v in row] for s in (1, -1) for row in ([1, 0], [0, 1], [1, 1])]},
}
ADMISSION_SCALES = (1e-13, 1.0, 1e13)
TP_INNER = {"kind": "min", "params": {"base": {"kind": "lp", "dim": 2, "p": 3.0}}}
LB_SOURCES = ("lp2-hilbert", "lp1-min", "lp3-concrete", "tp-l1", "concrete", "hilbert", "min-lp3")
LP_RANGE_P = (1.0, 1.5, 3.0, 40.0, 1e3, float("inf"))
LP_RANGE_WEIGHTS = (1e-150, 3e-40, 1.0, 2e60, 1e150)  # admitted by check_p at every p of LP_RANGE_P
LP_RANGE_SCALES = (1e-150, 1.0, 1e150)


def _digest(obj) -> list:
    text = repr(obj)
    rounded = _FLOAT.sub(lambda m: f"{float(m.group()):.{ROUND_DIGITS}g}", text)
    return [hashlib.sha256(t.encode()).hexdigest() for t in (text, rounded)]


def lb_spaces() -> dict:
    """The ``LB_SOURCES`` spaces by name; pllab and the benchmark inputs must be importable."""
    import workloads as wl
    from pllab import Quantization

    return dict(zip(LB_SOURCES, map(Quantization.from_dict, (
        wl._lp(2.0, [1.0, 0.5], inner=wl._hilbert(2)),
        wl._lp(1.0, [1.0, 2.0], inner=wl._min(wl._euc(2))),
        wl._lp(3.0, [1.0, 0.5], inner=wl._CONCRETE),
        wl._tensor_p(wl._lp_base(1.0, [1.0, 1.0]), wl._hilbert(2)),
        wl._CONCRETE,
        wl._hilbert(2),
        wl._min(wl._lp_base(3.0, [1.0, 2.0])),
    ))))


def record(root: Path) -> dict:
    sys.path[:0] = [str(root / "bench"), str(root / "src")]
    import numpy as np

    np.set_printoptions(threshold=sys.maxsize, floatmode="unique")
    import workloads as wl
    from pllab import (BaseNorm, PairingMap, Quantization, amp_norm, compare_pl_l, l_norm_bracket,
                       pl_norm_bracket)
    from pllab.maps import (BilinearMap, LinearMap, builtin_certificates, embedding_map, lb_norm_lower,
                            underlying_dual_maximize, underlying_dual_norm)
    from pllab.projective import proj_bracket
    from pllab.quantizations import tensor_p_bracket
    from pllab.suites import certificate_sweep, properties_suite, quantization_pool, verify_paper_suite

    out = {}
    runner = wl.Runner()
    for workload in IN_PROCESS:
        for seed in SEEDS:
            for k, op in enumerate(wl.make_round(workload, seed)):
                res = runner.prepare(op)(wl.hash_tag(f"{seed}/{k}"))
                rec = (res, res.to_dict()) if op.kind in ("pl", "l") else res
                out[f"{workload}/{seed}/{k}"] = _digest(rec)
                if workload == "lb-search":
                    out[f"lower/{workload}/{seed}/{k}"] = _digest(float(res.lower))

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for seed in SEEDS:
        for k, op in enumerate(wl.cli_round(seed)):
            proc = subprocess.run([sys.executable, "-m", "pllab.cli"] + op.args["argv"], cwd=root,
                                  env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            out[f"cli-jobs/{seed}/{k}"] = _digest((proc.returncode, proc.stdout))

    for i, (left, right) in enumerate(wl.PAIRS):
        E, F = Quantization.from_dict(left), Quantization.from_dict(right)
        for d in (1, 2, 3):
            U0 = wl._complex(wl._rng(0, "identity", i, d), d, E.dim * F.dim)
            for scale in SCALES:
                for scheme in ("row-major", "column-major"):
                    U, pairing = scale * U0, PairingMap(scheme)
                    try:
                        pl = pl_norm_bracket(E, F, U, pairing=pairing)
                        l = l_norm_bracket(E, F, U, pairing=pairing)
                        rec = (pl.to_dict(), pl.upper_witness.residual(), l.to_dict(),
                               l.upper_witness.residual(), compare_pl_l(E, F, U, pairing=pairing))
                        labels = [(b.upper_witness.label, b.lower_witness["certificate"]) for b in (pl, l)]
                    except ValueError as exc:
                        rec = labels = str(exc)
                    out[f"pairs/{i}/{d}/{scale!r}/{scheme}"] = _digest(rec)
                    out[f"labels/{i}/{d}/{scale!r}/{scheme}"] = _digest(labels)

    pool = quantization_pool()
    for a, E in enumerate(pool):
        for b, F in enumerate(pool):
            certs = builtin_certificates(E, F)
            rec = [(c.to_dict(), None if c.bilinear is None else c.bilinear.tensor) for c in certs]
            out[f"certificates/{a}/{b}"] = _digest(rec)
            for d in (1, 2, 3):
                U = wl._complex(wl._rng(0, "functional-pair", a, b, d), d, E.dim * F.dim)
                val, wit = certs[0].evaluate_lower(U)
                out[f"functional-pair/{a}/{b}/{d}"] = _digest((val, wit["functional_left"], wit["functional_right"]))

    for name, desc in PROJ_BASES.items():
        base = BaseNorm.from_dict(desc)
        for n in (2, 3, 4):
            for i in range(20):
                Z = wl._complex(wl._rng(0, "proj", name, n, i), base.dim, n)
                res = proj_bracket(base, None, Z, rng=wl._rng(0, "proj-search", name, n, i))
                out[f"proj/{name}/{n}/{i}"] = _digest((res.upper, res.lower, res.upper_method, res.terms))

    inner = Quantization.from_dict(TP_INNER)
    for name in ("lp3", "polytope"):
        base = BaseNorm.from_dict(PROJ_BASES[name])
        for n in (2, 3):
            for i in range(5):
                U = wl._complex(wl._rng(0, "tp", name, n, i), n, base.dim * inner.dim)
                res = tensor_p_bracket(base, inner, U, 200, wl._rng(0, "tp-search", name, n, i))
                out[f"tp/{name}/{n}/{i}"] = _digest((res.upper, res.lower, res.upper_method, res.terms))

    for p in (1.0, 3.0):
        for m in (2, 3, 4):
            base = BaseNorm.lp(p, weights=wl._rng(0, "dual-weights", p, m).uniform(0.5, 2.0, m))
            for rows in (1, 2, 3):
                for i in range(10):
                    A = wl._complex(wl._rng(0, "dual", p, m, rows, i), rows, m)
                    dm = base.dual_ball_maximize(A, rng=wl._rng(0, "dual-search", p, m, rows, i))
                    out[f"dual/lp{p:g}/{m}/{rows}/{i}"] = _digest((dm.lower, dm.upper, dm.exact, dm.witness))
    for m, count in ((1, 10), (2, 10), (3, 10), (4, 10), (17, 1)):
        base = BaseNorm.lp(1.0, weights=wl._rng(0, "dual-weights-real", m).uniform(0.5, 2.0, m), real=True)
        for i in range(count):
            A = wl._rng(0, "dual-real", m, i).standard_normal((1, m))
            try:
                dm = base.dual_ball_maximize(A, rng=wl._rng(0, "dual-search-real", m, i))
                rec = (dm.lower, dm.upper, dm.exact, dm.witness)
            except ValueError as exc:
                rec = str(exc)
            out[f"dual/lp1-real/{m}/1/{i}"] = _digest(rec)
    stack_bases = {f"lp{p:g}-{m}": BaseNorm.lp(p, weights=wl._rng(0, "dual-weights", p, m).uniform(0.5, 2.0, m))
                   for p in (1.0, 3.0) for m in (2, 3, 4)}
    stack_bases.update({f"lp1-real-{m}": BaseNorm.lp(
        1.0, weights=wl._rng(0, "dual-weights-real", m).uniform(0.5, 2.0, m), real=True) for m in (1, 2, 3, 4)})
    for name, base in stack_bases.items():
        for rows in (1, 2, 3):
            rec, rng = [], wl._rng(0, "dual-stack-search", name, rows)
            for i in range(4):
                A = wl._complex(wl._rng(0, "dual-stack", name, rows, i), 3, rows, base.dim)
                dm = base.dual_ball_maximize(A.real if base.real else A, rng=rng)
                rec.append((dm.lower, dm.upper, dm.exact, dm.witness))
            out[f"dual-stack/{name}/{rows}"] = _digest(rec)

    def verdict(call):
        try:
            call()
            return "accept"
        except ValueError as exc:
            return f"reject: {exc}"

    for name, desc in REAL_BASES.items():
        base = BaseNorm.from_dict(desc)
        for scale in ADMISSION_SCALES:
            rec = []
            for A in (np.array([[1.0, 1.0j], [0.5, 2.0]]), np.array([[1.0, -2.0], [0.5, 2.0]]) + 1e-14j):
                A = scale * A
                rng = wl._rng(0, "admission", name, scale)
                rec += [verdict(lambda: base.norm(A[0])), verdict(lambda: base.dual_ball_maximize(A, rng=rng)),
                        verdict(lambda: amp_norm(Quantization.min(base), A))]
            out[f"admission/{name}/{scale!r}"] = _digest(rec)

    for p in LP_RANGE_P:
        qs = [Quantization.lp(p, LP_RANGE_WEIGHTS, inner=inner) for inner in (None, Quantization.hilbert(2))]
        for scale in LP_RANGE_SCALES:
            rec = []
            for q, d in itertools.product(qs, (1, 2, 3)):
                nv = amp_norm(q, scale * wl._complex(wl._rng(0, "lp-range", p, q.dim, d), d, q.dim))
                rec.append((nv.value, nv.lower, nv.exact, nv.method))
            out[f"amp/lp-range/{p:g}/{scale!r}"] = _digest(rec)

    H2 = Quantization.hilbert(2)
    lb = lb_spaces()

    def put_lb(key, phi, seed):  # closed forms on, then off
        ests = [lb_norm_lower(phi, budget=wl.LB_BUDGET, seed=seed, use_closed_forms=c) for c in (True, False)]
        out[key] = _digest([(e.lower, e.exact, e.method, e.witness) for e in ests])
        out[f"lower/{key}"] = _digest([float(e.lower) for e in ests])

    for name, q in lb.items():
        for i in range(3):
            rng = wl._rng(0, "lb", name, i)
            c, A, M = wl._complex(rng, q.dim), wl._complex(rng, 1 + i, q.dim), wl._complex(rng, q.dim, 2)
            dm = underlying_dual_maximize(q, A, wl._rng(0, "lb-search", name, i))
            out[f"lb/dual/{name}/{i}"] = _digest((underlying_dual_norm(q, c), dm.lower, dm.upper, dm.exact,
                                                  dm.witness))
            functional = LinearMap(c[:, None], q, Quantization.scalar())
            put_lb(f"lb/functional/{name}/{i}", functional, i)
            put_lb(f"lb/linear/{name}/{i}", LinearMap(M, q, H2), i)
    for k, q in enumerate(pool):
        for i in range(3):
            c = wl._complex(wl._rng(0, "lb-pool", k, i), q.dim)
            e = lb_norm_lower(LinearMap(c[:, None], q, Quantization.scalar()), budget=wl.LB_BUDGET, seed=i,
                              use_closed_forms=False)
            out[f"lb/functional-pool/{k}/{i}"] = _digest((e.lower, e.exact, e.method, e.witness))
            out[f"lower/lb/functional-pool/{k}/{i}"] = _digest(float(e.lower))
    for a, b in itertools.product(LB_SOURCES, repeat=2):
        E, F = lb[a], lb[b]
        for rank in (1, 2):
            rng = wl._rng(0, "lb-bilinear", a, b, rank)
            C = wl._complex(rng, E.dim, rank) @ wl._complex(rng, rank, F.dim)
            r = BilinearMap(C[:, :, None], E, F, Quantization.scalar())
            put_lb(f"lb/bilinear/{a}/{b}/{rank}", r, rank)
    for name in ("hilbert", "lp2-hilbert", "min-lp3"):
        for p in (1.0, 3.0, np.inf):
            put_lb(f"lb/embedding/{name}/{p:g}", embedding_map(p, [0.7, 1.6], lb[name]), 0)
    for cert in builtin_certificates(H2, H2)[1:]:
        put_lb(f"lb/certificate/{cert.name}", cert.bilinear, 0)
    for name in ("hilbert", "min-lp3", "tp-l1"):
        q, scalar = lb[name], Quantization.scalar()
        embedding = embedding_map(1.0, [0.7, 1.6], q)
        for kind, phi in (("functional", LinearMap(np.zeros((q.dim, 1)), q, scalar)),
                          ("linear", LinearMap(np.zeros((q.dim, 2)), q, H2)),
                          ("bilinear", BilinearMap(np.zeros((q.dim, q.dim, 1)), q, q, scalar)),
                          ("embedding", replace(embedding, tensor=np.zeros_like(embedding.tensor)))):
            put_lb(f"lb/zero/{name}/{kind}", phi, 0)

    out["verify-paper/3"] = _digest(verify_paper_suite(n_max=3))
    out["properties/50"] = _digest(properties_suite(trials=50))
    out["certificate-sweep/40"] = _digest(certificate_sweep(pairs=40))
    return out


def compare(a: dict, b: dict) -> list:
    """Keys whose full-precision digests differ or that one file lacks."""
    return sorted(k for k in a.keys() | b.keys() if k not in a or k not in b or a[k][0] != b[k][0])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 3 or argv[0] not in ("record", "compare"):
        print(__doc__, file=sys.stderr)
        return 2
    if argv[0] == "record":
        records = record(Path(argv[1]).resolve())
        Path(argv[2]).write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        print(f"{len(records)} records written to {argv[2]}")
        return 0
    a, b = (json.loads(Path(p).read_text()) for p in argv[1:])
    differ = compare(a, b)
    for key in differ:
        print(key)
    close = {k for k in differ if k in a and k in b and a[k][1] == b[k][1]}
    print(f"{len(differ)} of {len(a.keys() | b.keys())} records differ, "
          f"{len(close)} of them agree at {ROUND_DIGITS} significant digits")
    groups = {key: "/".join(key.split("/")[:2]) for key in differ}
    counts, agree = Counter(groups.values()), Counter(groups[key] for key in close)
    for g, n in sorted(counts.items()):
        print(f"{n:6d} differ {agree[g]:6d} agree  {g}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
