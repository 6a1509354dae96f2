"""Seeded inputs, operations and output checks of the four benchmark workloads.

Every input is made here from the workload seed; pllab sees only the
generated descriptors and elements.  Descriptors are written in the wire
format of the `pllab` input documents, so the in-process workloads and the
CLI jobs share them.

A workload is a fixed list of operations called a round.  The structure of a
round (which pair, which norm, which truncation, which scale) is the same for
every seed; the seed draws the entries.  Runs measure whole rounds, so every
run sees the same mix and the quality metrics, taken over the first round,
are deterministic for a seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

WORKLOADS = ("cli-jobs", "bracket-batch", "amp-sweep", "lb-search")

# Relative tolerance of every value check; the CLI's default tolerance.
TOL = 1e-9

BRACKET_BUDGET = 200
AMP_BUDGET = 200
LB_BUDGET = 100
CLI_BUDGET = 200
SCALE_EXPONENTS = (0, 3, 6, 9, 12)
# A run measures at least this many whole rounds, and the tail percentile is
# fixed by that many rounds' samples, so it does not change with speed.
MIN_ROUNDS = 2
AMP_ROUNDS_PER_POOL = 96
BRACKET_REPEATS = 2
LB_REPEATS = 4


# -- descriptors in the wire format -------------------------------------------


def _euc(m):
    return {"kind": "euclidean", "dim": m}


def _lp_base(p, weights):
    return {"kind": "lp", "dim": len(weights), "p": p, "weights": list(weights)}


def _min(base):
    return {"kind": "min", "params": {"base": base}}


def _max(base):
    return {"kind": "max", "params": {"base": base}}


def _hilbert(n):
    return {"kind": "hilbert", "dim": n}


def _lp(p, weights, inner=None):
    out = {"kind": "lp", "params": {"p": p, "weights": list(weights)}}
    if inner is not None:
        out["inner"] = inner
    return out


def _tensor_p(base, inner):
    return {"kind": "tensor_p", "params": {"base": base}, "inner": inner}


def _matrix_json(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(m)]


_PAULI = [
    np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
]
_CONCRETE = {"kind": "concrete", "params": {"generators": [_matrix_json(g) for g in _PAULI]}}
_TRIANGLE = [[1.0, 0.5], [-1.0, -0.5], [0.0, 1.0], [0.0, -1.0], [1.0, -1.0], [-1.0, 1.0]]
_POLYTOPE = {"kind": "polytope", "dim": 2, "vertices": [[[x, 0.0] for x in v] for v in _TRIANGLE]}

# The ten pairs of the certificate sweep in pllab.suites, then three pairs
# that add the semi-Ruan cold screen on a nested lp target, a tensor_p factor
# and a concrete factor.  Together they cover all six quantization kinds.
PAIRS = [
    (_hilbert(2), _hilbert(2)),
    (_hilbert(3), _hilbert(3)),
    (_min(_euc(2)), _min(_euc(3))),
    (_min(_euc(2)), _hilbert(2)),
    (_max(_lp_base(1.0, [1.0, 2.0])), _hilbert(2)),
    (_max(_euc(2)), _lp(2.0, [1.0, 1.0])),
    (_lp(1.0, [1.0, 0.5, 2.0]), _hilbert(2)),
    (_lp(1.0, [1.0, 1.0]), _lp(1.0, [0.5, 2.0])),
    (_lp(1.0, [1.0, 1.0]), _min(_lp_base("inf", [1.0, 1.0]))),
    (_min(_lp_base(1.0, [1.0, 1.0, 1.0])), _min(_euc(2))),
    (_max(_euc(3)), _lp(2.0, [1.0, 0.5], inner=_hilbert(2))),
    (_tensor_p(_euc(2), _hilbert(2)), _hilbert(2)),
    (_CONCRETE, _min(_lp_base(1.0, [1.0, 1.0, 1.0]))),
]
MIN_EUCLIDEAN_PAIR = 2  # l norm = operator norm of the coefficient matrix
L1_PAIR = 7  # pl norm = weighted sum of column norms

# The descriptor pool of pllab.suites.quantization_pool at the time the
# benchmark was defined, copied so that the inputs stay fixed.
POOL = [
    _min(_euc(3)),
    _min(_lp_base(1.0, [1.0, 2.0, 0.5])),
    _min(_lp_base("inf", [1.0, 1.0, 1.0])),
    _min(_POLYTOPE),
    _max(_lp_base(1.0, [1.0, 1.5])),
    _max(_euc(2)),
    _lp(1.0, [1.0, 0.5, 2.0]),
    _lp(2.0, [1.0, 1.0]),
    _lp("inf", [1.0, 2.0]),
    _lp(2.0, [1.0, 0.5], inner=_hilbert(2)),
    _hilbert(3),
    _CONCRETE,
    _tensor_p(_lp_base(1.0, [1.0, 1.0]), _hilbert(2)),
    _tensor_p(_euc(2), _hilbert(2)),
]

# One norm job per quantization kind.
NORM_JOBS = [
    _min(_euc(3)),
    _max(_lp_base(1.0, [1.0, 1.5])),
    _lp(2.0, [1.0, 0.5], inner=_hilbert(2)),
    _hilbert(3),
    _CONCRETE,
    _tensor_p(_euc(2), _hilbert(2)),
]


def _dim(desc) -> int:
    kind = desc["kind"]
    if kind == "hilbert":
        return desc["dim"]
    if kind in ("min", "max"):
        return desc["params"]["base"]["dim"]
    if kind == "lp":
        inner = _dim(desc["inner"]) if "inner" in desc else 1
        return len(desc["params"]["weights"]) * inner
    if kind == "concrete":
        return len(desc["params"]["generators"])
    return desc["params"]["base"]["dim"] * _dim(desc["inner"])


# -- operations ---------------------------------------------------------------


@dataclass
class Op:
    """One operation of a round and what its output must satisfy."""

    kind: str  # pl | l | amp | lb-functional | lb-embedding | cli
    args: dict
    expected: Optional[float] = None  # known value, or the lb-norm reference
    info: dict = field(default_factory=dict)


def _rng(seed: int, *tags) -> np.random.Generator:
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, *[hash_tag(t) for t in tags]])


def hash_tag(tag) -> int:
    """Stable 32-bit value of a stream label (builtin hash is salted per process)."""
    h = 2166136261
    for ch in str(tag).encode():
        h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
    return h


def _complex(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def v_example(n: int) -> np.ndarray:
    """V = sum_k e_k (p_k (x) p_k): pl norm n, l norm sqrt(n) over Hilbert factors."""
    V = np.zeros((n, n * n), dtype=complex)
    for k in range(n):
        V[k, k * n + k] = 1.0
    return V


def _l1_pair_value(U, wE, wF) -> float:
    sF = len(wF)
    return float(
        sum(
            wE[s] * wF[t] * np.linalg.norm(U[:, s * sF + t])
            for s in range(len(wE))
            for t in range(sF)
        )
    )


def bracket_round(seed: int) -> list:
    """pl and l brackets over every pair, plus the V example, at spread scales."""
    ops = []
    for rep in range(BRACKET_REPEATS):
        for i, (left, right) in enumerate(PAIRS):
            m = _dim(left) * _dim(right)
            for j, norm in enumerate(("pl", "l")):
                d = 1 + (i + j + 2 * rep) % 4
                scale = 10.0 ** SCALE_EXPONENTS[(2 * i + j + 3 * rep) % len(SCALE_EXPONENTS)]
                U = scale * _complex(_rng(seed, "bracket", rep, i, j), d, m)
                expected = None
                if i == MIN_EUCLIDEAN_PAIR and norm == "l":
                    expected = float(np.linalg.norm(U, 2))
                if i == L1_PAIR and norm == "pl":
                    expected = _l1_pair_value(U, left["params"]["weights"], right["params"]["weights"])
                ops.append(Op(norm, {"pair": (left, right), "U": U}, expected, {"pair": i}))
        for n in (2, 3, 4):
            phase = np.exp(2j * np.pi * _rng(seed, "v-example", rep, n).random())
            for j, norm in enumerate(("pl", "l")):
                scale = 10.0 ** SCALE_EXPONENTS[(n + 2 * j + 3 * rep) % len(SCALE_EXPONENTS)]
                U = scale * phase * v_example(n)
                expected = scale * (n if norm == "pl" else math.sqrt(n))
                pair = (_hilbert(n), _hilbert(n))
                ops.append(Op(norm, {"pair": pair, "U": U}, expected, {"pair": f"v{n}"}))
    return ops


def amp_round(seed: int) -> list:
    """amp_norm on tiny elements, round-robin over the descriptor pool."""
    ops = []
    for r in range(AMP_ROUNDS_PER_POOL):
        for k, desc in enumerate(POOL):
            d = 1 + (r + k) % 3
            rng = _rng(seed, "amp", r, k)
            U = _complex(rng, d, _dim(desc))
            ops.append(Op("amp", {"q": desc, "U": U}, info={"pool": k}))
    return ops


def dual_norm(base: dict, c: np.ndarray) -> float:
    """Closed-form dual norm of the functional x -> sum c_j x_j on a base."""
    a = np.abs(c)
    if base["kind"] == "euclidean":
        return float(np.linalg.norm(a))
    w = np.asarray(base["weights"], dtype=float)
    p = base["p"]
    if p == "inf":
        return float(np.sum(a / w))
    if p == 1.0:
        return float(np.max(a / w))
    q = p / (p - 1.0)
    return float(np.sum((a * w ** (-1.0 / p)) ** q) ** (1.0 / q))


LB_BASES = ("l1", "l3", "linf", "euclidean")
LB_EMBEDDINGS = [
    (1.0, _hilbert(2)),
    (2.0, _min(_euc(2))),
    ("inf", _lp(1.0, [1.0, 1.0])),
    (1.0, _min(_euc(2))),
    (2.0, _hilbert(2)),
    ("inf", _hilbert(2)),
]


def _lb_base(kind: str, weights) -> dict:
    if kind == "euclidean":
        return _euc(len(weights))
    p = {"l1": 1.0, "l3": 3.0, "linf": "inf"}[kind]
    return _lp_base(p, [float(w) for w in weights])


def lb_round(seed: int) -> list:
    """Functionals over min bases (closed forms off) and embedding maps."""
    ops = []
    for rep in range(LB_REPEATS):
        for kind in LB_BASES:
            for m in range(1, 6):
                rng = _rng(seed, "lb", rep, kind, m)
                base = _lb_base(kind, rng.uniform(0.5, 2.0, m))
                c = _complex(rng, m)
                info = {"base": kind, "m": m}
                ops.append(Op("lb-functional", {"base": base, "c": c}, dual_norm(base, c), info))
        for k, (p, inner) in enumerate(LB_EMBEDDINGS):
            weights = [float(w) for w in _rng(seed, "lb-embed", rep, k).uniform(0.5, 2.0, 2)]
            args = {"p": p, "weights": weights, "F": inner}
            ops.append(Op("lb-embedding", args, 1.0, {"embed": k}))
    return ops


# -- CLI jobs -----------------------------------------------------------------

CLI_COMMANDS = ("l", "compare", "pl")  # pair i runs CLI_COMMANDS[i % 3]


def cli_round(seed: int) -> list:
    """One process per job: norm jobs, pair jobs, verify-paper, malformed input."""
    ops = []
    for k, desc in enumerate(NORM_JOBS):
        d = 1 + k % 3
        U = _complex(_rng(seed, "cli-norm", k), d, _dim(desc))
        doc = {"schema_version": "1", "quantization": desc, "element": _matrix_json(U)}
        ops.append(_cli_op("norm", doc, {0, 2}, {"job": f"norm/{desc['kind']}"}))
    for i, (left, right) in enumerate(PAIRS):
        command = CLI_COMMANDS[i % 3]
        d = 1 + i % 3
        U = _complex(_rng(seed, "cli-pair", i), d, _dim(left) * _dim(right))
        doc = {"schema_version": "1", "left": left, "right": right, "element": _matrix_json(U)}
        ops.append(_cli_op(command, doc, {0, 2}, {"job": f"{command}/pair{i}"}))
    ops.append(
        Op("cli", {"argv": ["--command", "verify-paper", "--n-max", "4"], "expect_exit": {0}},
           info={"job": "verify-paper"})
    )
    # Malformed input must end with exit 3 and an input-error report.
    U = _complex(_rng(seed, "cli-bad"), 1, 3)
    bad_schema = {"schema_version": "2", "quantization": NORM_JOBS[0], "element": _matrix_json(U)}
    ops.append(_cli_op("norm", bad_schema, {3}, {"job": "malformed/schema"}))
    U[0, int(_rng(seed, "cli-nan").integers(0, 3))] = complex(float("nan"), 0.0)
    non_finite = {"schema_version": "1", "quantization": NORM_JOBS[0], "element": _matrix_json(U)}
    ops.append(_cli_op("norm", non_finite, {3}, {"job": "malformed/non-finite"}))
    return ops


def _cli_op(command: str, doc: dict, expect_exit: set, info: dict) -> Op:
    argv = [
        "--command", command,
        "--input", json.dumps(doc, separators=(",", ":")),
        "--budget", str(CLI_BUDGET),
    ]
    return Op("cli", {"argv": argv, "expect_exit": expect_exit}, info=info)


ROUNDS = {
    "cli-jobs": cli_round,
    "bracket-batch": bracket_round,
    "amp-sweep": amp_round,
    "lb-search": lb_round,
}


def make_round(workload: str, seed: int) -> list:
    return ROUNDS[workload](seed)


# -- running an operation in process ---------------------------------------------


class Runner:
    """Builds pllab objects from the descriptors once, then runs operations."""

    def __init__(self):
        from pllab import Quantization

        self._from_dict = Quantization.from_dict
        self._cache = {}

    def quant(self, desc) -> object:
        key = json.dumps(desc, sort_keys=True)
        q = self._cache.get(key)
        if q is None:
            q = self._cache[key] = self._from_dict(desc)
        return q

    def prepare(self, op: Op):
        """Resolve descriptors to pllab objects, outside the timed region."""
        import pllab
        from pllab.maps import LinearMap, embedding_map

        a = op.args
        if op.kind in ("pl", "l"):
            E, F = (self.quant(x) for x in a["pair"])
            fn = pllab.pl_norm_bracket if op.kind == "pl" else pllab.l_norm_bracket
            return lambda seed: fn(E, F, a["U"], budget=BRACKET_BUDGET, seed=seed)
        if op.kind == "amp":
            q = self.quant(a["q"])
            return lambda seed: pllab.amp_norm(q, a["U"], budget=AMP_BUDGET, seed=seed)
        if op.kind == "lb-functional":
            q = self.quant(_min(a["base"]))
            phi = LinearMap(a["c"][:, None], q, self.quant(_hilbert(1)))
        else:
            phi = embedding_map(float(a["p"]), a["weights"], self.quant(a["F"]))
        return lambda seed: pllab.lb_norm_lower(
            phi, budget=LB_BUDGET, seed=seed, use_closed_forms=False
        )


# -- output checks ------------------------------------------------------------------


def _close(x: float, want: float) -> bool:
    return abs(x - want) <= TOL * max(1.0, abs(want))


def _ordered(lower: float, upper: float) -> bool:
    return 0.0 <= lower <= upper + TOL * max(1.0, abs(upper))


def check_bracket(op: Op, lower: float, upper: float) -> tuple:
    """(passed, relative gap) of a pl or l bracket."""
    ok = _ordered(lower, upper) and all(math.isfinite(v) for v in (lower, upper))
    if op.expected is not None:
        ok = ok and _close(lower, op.expected) and _close(upper, op.expected)
    gap = (upper - lower) / upper if upper > 0 else 0.0
    return ok, max(gap, 0.0)


def reference_amp(desc: dict, U: np.ndarray) -> Optional[float]:
    """Independent numpy value of the exact kinds the benchmark checks."""
    if desc["kind"] == "hilbert":
        return float(np.sqrt(np.sum(np.abs(U) ** 2)))
    if desc["kind"] == "min" and desc["params"]["base"]["kind"] == "euclidean":
        return float(np.linalg.svd(U, compute_uv=False)[0])
    if desc["kind"] == "concrete":
        gens = [np.array([[complex(*z) for z in row] for row in g]) for g in desc["params"]["generators"]]
        block = sum(np.kron(U[:, j : j + 1], g) for j, g in enumerate(gens))
        return float(np.linalg.svd(block, compute_uv=False)[0])
    return None


def check_amp(op: Op, nv) -> tuple:
    value, lower = float(nv.value), float(nv.lower)
    ok = math.isfinite(value) and _ordered(lower, value)
    ref = reference_amp(op.args["q"], op.args["U"])
    if ref is not None:
        ok = ok and bool(nv.exact) and _close(value, ref) and _close(lower, ref)
    gap = (value - lower) / value if value > 0 else 0.0
    return ok, max(gap, 0.0)


def check_lb(op: Op, est) -> tuple:
    lower, ref = float(est.lower), op.expected
    ok = math.isfinite(lower) and 0.0 <= lower <= ref + TOL
    return ok, max((ref - lower) / ref, 0.0)


def check(op: Op, out) -> tuple:
    """(passed, relative gap) of an in-process operation's output."""
    if op.kind in ("pl", "l"):
        return check_bracket(op, float(out.lower), float(out.upper))
    if op.kind == "amp":
        return check_amp(op, out)
    return check_lb(op, out)


def check_cli(op: Op, code: int, stdout: str) -> tuple:
    """(verdict, relative gap or None) of a CLI job.

    verdict is "ok", "raised" (exit without a JSON report, e.g. a traceback)
    or "wrong" (a report whose exit code, outcome or values are not what the
    document calls for).
    """
    try:
        report = json.loads(stdout)
    except ValueError:
        return "raised", None
    if not isinstance(report, dict):
        return "wrong", None
    outcome = {0: "pass", 1: "violation", 2: "gap", 3: "input-error"}.get(code)
    if code not in op.args["expect_exit"] or report.get("outcome") != outcome:
        return "wrong", None
    gaps = []
    for row in report.get("cases", []):
        if "lower" in row and "upper" in row:
            lower, upper = float(row["lower"]), float(row["upper"])
            if not _ordered(lower, upper):
                return "wrong", None
            gaps.append((upper - lower) / upper if upper > 0 else 0.0)
    gap = sum(gaps) / len(gaps) if gaps else None
    return "ok", gap
