"""One in-process workload: set-up, then a closed loop with one client.

Started by run.py, never by hand.  Prints one JSON line with the raw
samples; run.py turns them into metrics.  Set-up is everything from process
start to the first timed operation: imports, building the inputs, and one
untimed warm-up operation per distinct descriptor or factor pair, which
fills process caches such as the semi-Ruan screen of the l pool.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]


def _import_pllab():
    import pllab

    if SRC.resolve() not in Path(pllab.__file__).resolve().parents:
        raise SystemExit(f"pllab was imported from {pllab.__file__}, not from {SRC}")
    return pllab


def warmup_ops(ops: list) -> list:
    """The last operation of each distinct descriptor or pair.

    For brackets this is the l bracket, which runs the pl families and the
    semi-Ruan screen as well.
    """
    last = {}
    for op in ops:
        if op.kind in ("pl", "l"):
            key = json.dumps(op.args["pair"], sort_keys=True)
        elif op.kind == "amp":
            key = json.dumps(op.args["q"], sort_keys=True)
        else:
            key = (op.kind, op.info.get("base"), op.info.get("embed"))
        last[key] = op
    return list(last.values())


def run(workload: str, seed: int, seconds: float, traced: bool, setup_only: bool, span_file):
    _import_pllab()
    import tracing
    import workloads as wl
    from speed import SpeedLog

    speed = SpeedLog()
    speed.tick(force=True)
    rec = None
    if traced:
        rec = tracing.Recorder()
        tracing.install(rec)
    else:
        before = tracing.bindings()
    ops = wl.make_round(workload, seed)
    runner = wl.Runner()
    calls = {id(op): runner.prepare(op) for op in ops}

    # The warm-up uses pllab's default seed, so the cost of the semi-Ruan
    # screens it runs does not depend on the workload seed.
    for op in warmup_ops(ops):
        speed.tick()
        try:
            calls[id(op)](0)
        except Exception:  # a failing operation is counted in the timed phase
            pass
    ready = time.monotonic()
    speed.tick(force=True)
    setup_scale = speed.overall_scale()
    if setup_only:
        return {"ready": ready, "setup_scale": setup_scale}

    n = len(ops)
    lat, mid, verdicts, errors, round_gaps = [], [], [], {}, []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        k = i % n
        op = ops[k]
        fn = calls[id(op)]
        op_seed = wl.hash_tag(f"{seed}/{k}")
        speed.tick()
        if rec is not None:
            rec.op_id = i
        t0 = time.perf_counter()
        try:
            out = fn(op_seed)
        except Exception as exc:  # counted as a failed operation
            out, err = None, type(exc).__name__
        else:
            err = None
        t1 = time.perf_counter()
        if err is None:
            ok, gap = wl.check(op, out)
            verdict = "ok" if ok else "wrong"
            if i < n:
                round_gaps.append(gap)
        else:
            verdict = "raised"
            errors[err] = errors.get(err, 0) + 1
        lat.append(t1 - t0)
        mid.append((t0 + t1) / 2)
        verdicts.append(verdict)
        i += 1
        if i % n == 0 and i >= wl.MIN_ROUNDS * n and time.perf_counter() >= deadline:
            break

    speed.tick(force=True)
    result = {
        "ready": ready,
        "setup_scale": setup_scale,
        "speed": speed.to_json(),
        "lat": lat,
        "mid": mid,
        "verdicts": verdicts,
        "round_ops": n,
        "round_gaps": round_gaps,
        "errors": errors,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if rec is None:
        result["bindings_unchanged"] = tracing.bindings() == before
    else:
        tracing.save(span_file, rec.spans(), {"counts": rec.counts})
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--span-file")
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.setup_only, args.span_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
