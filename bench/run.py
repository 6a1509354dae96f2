"""pllab benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/pllab.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  The line before it records the environment and the sample
counts.  See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("cli-jobs", "bracket-batch", "amp-sweep", "lb-search")

# Set-up repeats per run; bracket-batch sets up once, because one set-up
# (about 13 s, mostly the cold semi-Ruan screens) is already two thirds of
# its timed phase, and repeats would not fit the time all runs may take.
SETUP_REPEATS = {"cli-jobs": 5, "bracket-batch": 1, "amp-sweep": 3, "lb-search": 3}

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 66.0, 50.0)
TAIL_SAMPLES = 10  # the tail percentile has at least this many samples beyond it

RUN_LIMIT_S = 150.0  # stop early rather than overrun the 180 s a run may take
PINNED_ENV = {
    "PLLAB_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def tail_percentile(n: int) -> float:
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= TAIL_SAMPLES:
            return p
    return 50.0


def percentile(values: list, p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(lat: list, verdicts: list, round_ops: int, round_gaps: list,
              setups: list, rss_mb: float, p_tail: float) -> tuple:
    """End-to-end metrics and the sample counts behind them."""
    ok_time = sum(t for t, v in zip(lat, verdicts) if v == "ok")
    first = verdicts[:round_ops]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (verdicts.count("ok") / ok_time if ok_time else 0.0, "1/s"),
        "op_p50_s": (percentile(lat, 50.0), "s"),
        "op_tail_s": (percentile(lat, p_tail), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_share": (first.count("ok") / len(first), "share"),
        "gap_rel_mean": (sum(round_gaps) / len(round_gaps) if round_gaps else 0.0, "share"),
    }
    samples = {
        "setup_s": len(setups),
        "ops": len(lat),
        "tail_percentile": p_tail,
        "beyond_tail": sum(1 for t in lat if t > metrics["op_tail_s"][0]),
        "quality_ops": len(first),
        "gap_ops": len(round_gaps),
    }
    return metrics, samples


# -- in-process workloads -------------------------------------------------------------


def _worker(args, env, setup_only: bool, span_file=None) -> tuple:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if span_file:
        cmd += ["--span-file", str(span_file)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=RUN_LIMIT_S)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    return result, (result["ready"] - spawned, result["setup_scale"])


def in_process(args, env) -> dict:
    import tracing
    from speed import SpeedLog

    span_file = OUT / f"spans-{args.workload}.npz" if args.trace else None
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS[args.workload] - 1):
            setups.append(_worker(args, env, setup_only=True)[1])
    result, setup = _worker(args, env, setup_only=False, span_file=span_file)
    setups.append(setup)
    result["setups"] = setups
    speed = SpeedLog.from_json(result["speed"])
    result["scales"] = [speed.scale(m) for m in result["mid"]]
    result["rss_mb"] = result["rss_kb"] / 1024.0
    if args.trace:
        result["spans"], meta = tracing.load(span_file)
        result["counts"] = meta["counts"]
    return result


# -- cli-jobs: one fresh pllab process per job --------------------------------------------


def cli_jobs(args, env) -> dict:
    import tracing
    import workloads as wl
    from speed import SpeedLog

    started = time.perf_counter()
    speed = SpeedLog()
    setups = []
    for _ in range(SETUP_REPEATS["cli-jobs"]):
        speed.tick(force=True)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pllab.cli", "--version"], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, timeout=60)
        t1 = time.perf_counter()
        speed.tick(force=True)
        setups.append((t1 - t0, speed.scale((t0 + t1) / 2)))
        if proc.returncode != 0 or not proc.stdout.startswith(b"pllab "):
            raise SystemExit("pllab --version failed")

    ops = wl.cli_round(args.seed)
    n = len(ops)
    spans = tracing.empty_spans()
    counts, import_s = {}, []
    job_spans = OUT / "job-spans.npz"
    lat, mid, verdicts, errors, round_gaps = [], [], [], {}, []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        op = ops[i % n]
        argv = list(op.args["argv"]) + ["--seed", str(wl.hash_tag(f"{args.seed}/{i % n}"))]
        if args.trace:
            cmd = [sys.executable, str(BENCH / "launcher.py"), str(job_spans)] + argv
        else:
            cmd = [sys.executable, "-m", "pllab.cli"] + argv
        speed.tick(force=True)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=RUN_LIMIT_S)
        t1 = time.perf_counter()
        verdict, gap = wl.check_cli(op, proc.returncode, proc.stdout.decode())
        if verdict == "raised":
            last = proc.stderr.decode().strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
            errors[last[0][:80]] = errors.get(last[0][:80], 0) + 1
        if i < n and gap is not None:
            round_gaps.append(gap)
        lat.append(t1 - t0)
        mid.append((t0 + t1) / 2)
        verdicts.append(verdict)
        if args.trace:
            job, meta = tracing.load(job_spans)
            tracing.merge(spans, job, i)
            for key, value in meta["counts"].items():
                counts[key] = counts.get(key, 0) + value
            import_s.append(meta["import_s"])
            job_spans.unlink()
        i += 1
        if i % n == 0 and i >= wl.MIN_ROUNDS * n and t1 >= deadline:
            break
        if t1 - started > RUN_LIMIT_S:
            break

    speed.tick(force=True)
    result = {
        "lat": lat, "verdicts": verdicts, "round_ops": n, "round_gaps": round_gaps,
        "errors": errors, "setups": setups, "scales": [speed.scale(m) for m in mid],
        "rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    if args.trace:
        result.update(spans=spans, counts=counts, import_s=import_s)
        tracing.save(OUT / f"spans-{args.workload}.npz", spans, {"counts": counts})
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pllab benchmark: one workload, one run.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pllab" / "__init__.py").is_file():
        print(f"no pllab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)  # before numpy is imported here
    sys.path[:0] = [str(BENCH), str(SRC)]
    env = pinned_env()
    OUT.mkdir(exist_ok=True)

    if args.workload == "cli-jobs":
        res = cli_jobs(args, env)
    else:
        res = in_process(args, env)

    import numpy
    import workloads as wl

    # the tail percentile is fixed by the samples of the rounds every run makes
    p_tail = tail_percentile(wl.MIN_ROUNDS * res["round_ops"])
    scaled_lat = [t * k for t, k in zip(res["lat"], res["scales"])]
    scaled_setups = [t * k for t, k in res["setups"]]
    metrics, samples = summarize(scaled_lat, res["verdicts"], res["round_ops"],
                                 res["round_gaps"], scaled_setups, res["rss_mb"], p_tail)
    raw, _ = summarize(res["lat"], res["verdicts"], res["round_ops"], res["round_gaps"],
                       [t for t, _ in res["setups"]], res["rss_mb"], p_tail)
    attempted = len(res["verdicts"])
    wrong = res["verdicts"].count("wrong")
    failed = attempted - res["verdicts"].count("ok")
    correct = wrong == 0 and res.get("bindings_unchanged", True)
    if args.trace:
        import tracing

        scales = res["scales"]
        import_s = [t * k for t, k in zip(res.get("import_s", []), scales)]
        layers = tracing.per_layer(
            res["spans"], res["counts"], scaled_lat, scales,
            setup_scale=res["setups"][-1][1],
            import_s=statistics.mean(import_s) if import_s else 0.0,
        )
        layers["bench.traced_ops_per_s"] = metrics["ops_per_s"]
        correct = correct and layers["bench.self_over_wall_max"][0] <= 1.0
        metrics = layers
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "samples": samples, "wrong": wrong, "raised": res["verdicts"].count("raised"),
        "errors": res["errors"],
        "speed_scale_median": statistics.median(res["scales"]),
        "raw": {k: raw[k][0] for k in ("setup_s", "ops_per_s", "op_p50_s", "op_tail_s")},
        "setup_values_s": [t for t, _ in res["setups"]],
    }
    if "bindings_unchanged" in res:
        detail["untraced_bindings_unchanged"] = res["bindings_unchanged"]
    print(json.dumps(detail))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
