"""Command-line front end.

Exit codes: 0 all checks pass, 1 at least one certified violation or failed
case, 2 brackets left open beyond tolerance but nothing failed, 3 malformed
input or a bad command line.  Reports are byte-identical for identical jobs;
wall-clock timing goes to stderr so it never perturbs the report.
"""

from __future__ import annotations

import argparse
import math
import shlex
import sys
import time

from . import __version__
from .jsonio import (
    SCHEMA_VERSION,
    InputError,
    load_document,
    parse_norm_job,
    parse_pair_job,
    render_csv,
    render_json,
)
from .quantizations import amp_norm
from .suites import properties_suite, verify_paper_suite
from .tensorlab import compare_pl_l, l_norm_bracket, pl_norm_bracket

__all__ = ["main", "run_job", "build_parser"]

COMMANDS = ("norm", "pl", "l", "compare", "verify-paper", "properties")

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_GAP = 2
EXIT_INPUT = 3


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError (exit 3); argparse would exit 2, the gap
    code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="pllab",
        description="Certified bracket evaluation of quantized and tensor norms.",
    )
    ap.add_argument("--command", required=True, choices=COMMANDS)
    ap.add_argument(
        "--input",
        help="input document: a JSON file path, or inline JSON starting with '{'",
    )
    ap.add_argument("--budget", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tolerance", type=float, default=1e-9)
    ap.add_argument("--format", choices=("json", "csv"), default="json")
    ap.add_argument("--n-max", type=int, default=4, help="verify-paper: largest separation size")
    ap.add_argument("--trials", type=int, default=1000, help="properties: trials per sweep")
    ap.add_argument("--version", action="version", version=f"pllab {__version__}")
    return ap


def _check_flags(args: argparse.Namespace) -> None:
    bad = []
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        bad.append(f"--tolerance must be a finite number >= 0, got {args.tolerance}")
    for flag, value, least in (
        ("--budget", args.budget, 0),
        ("--seed", args.seed, 0),
        ("--n-max", args.n_max, 1),
        ("--trials", args.trials, 1),
    ):
        if value < least:
            bad.append(f"{flag} must be an integer >= {least}, got {value}")
    if bad:
        raise InputError("; ".join(bad), [{"pointer": "", "message": m} for m in bad])


def _repro(args: argparse.Namespace) -> str:
    parts = [f"pllab --command {args.command}"]
    if args.input:
        parts.append(f"--input {shlex.quote(args.input)}")
    parts.append(f"--budget {args.budget} --seed {args.seed} --tolerance {args.tolerance}")
    if args.command == "verify-paper":
        parts.append(f"--n-max {args.n_max}")
    if args.command == "properties":
        parts.append(f"--trials {args.trials}")
    return " ".join(parts)


def _has_gap(lower: float, upper: float, tolerance: float) -> bool:
    return (upper - lower) > tolerance * max(1.0, abs(upper))


def _norm_cases(args, doc: dict) -> list:
    q, U, label = parse_norm_job(doc)
    nv = amp_norm(q, U, budget=args.budget, seed=args.seed)
    return [
        {
            "case": label or "norm",
            "passed": True,
            "lower": nv.lower,
            "upper": nv.value,
            "exact": nv.exact,
            "method": nv.method,
            "gap": (not nv.exact) and _has_gap(nv.lower, nv.value, args.tolerance),
        }
    ]


def _pair_cases(args, doc: dict) -> list:
    E, F, U, pairing, label = parse_pair_job(doc, args.command)
    fn = pl_norm_bracket if args.command == "pl" else l_norm_bracket
    b = fn(E, F, U, budget=args.budget, seed=args.seed, pairing=pairing)
    return [{"case": label or args.command, "passed": True, "lower": b.lower, "upper": b.upper,
             "gap": _has_gap(b.lower, b.upper, args.tolerance),
             "certificate": b.lower_witness.get("certificate"), "family": b.upper_witness.label}]


def _compare_cases(args, doc: dict) -> list:
    E, F, U, pairing, label = parse_pair_job(doc, "compare")
    prefix = f"{label}/" if label else ""
    try:
        report = compare_pl_l(E, F, U, budget=args.budget, seed=args.seed, pairing=pairing)
    except AssertionError as exc:
        return [{"case": f"{prefix}compare", "passed": False, "error": str(exc)}]
    rows = []
    for which in ("pl", "l"):
        part = report[which]
        rows.append(
            {
                "case": f"{prefix}{which}",
                "passed": True,
                "lower": part["lower"],
                "upper": part["upper"],
                "gap": _has_gap(part["lower"], part["upper"], args.tolerance),
            }
        )
    for chk in report["checks"]:
        rows.append({"case": f"{prefix}check/{chk['name']}", "passed": chk["passed"]})
    rows.append({"case": f"{prefix}separation-ratio", "passed": True, "value": report["separation_ratio"]})
    if "underlying_overlap" in report:
        rows.append({"case": f"{prefix}underlying-overlap", "passed": bool(report["underlying_overlap"])})
    return rows


# command -> the cases of its input document
_DOCUMENT_JOBS = {"norm": _norm_cases, "pl": _pair_cases, "l": _pair_cases, "compare": _compare_cases}


def run_job(args: argparse.Namespace) -> tuple:
    """Execute one job; returns (report dict, exit code)."""
    _check_flags(args)
    job = _DOCUMENT_JOBS.get(args.command)
    if job is not None:
        if not args.input:
            raise InputError(f"--command {args.command} requires --input")
        cases = job(args, load_document(args.input))
    elif args.command == "verify-paper":
        cases = verify_paper_suite(
            n_max=args.n_max, budget=args.budget, seed=args.seed, tolerance=args.tolerance
        )
    else:
        cases = properties_suite(
            trials=args.trials, seed=args.seed, tolerance=args.tolerance
        )

    repro = _repro(args)
    for row in cases:
        if not row["passed"]:
            row["repro"] = repro
    cases.sort(key=lambda r: r["case"])

    failed = sum(1 for r in cases if not r["passed"])
    gaps = sum(1 for r in cases if r.get("gap"))
    if failed:
        outcome, code = "violation", EXIT_VIOLATION
    elif gaps:
        outcome, code = "gap", EXIT_GAP
    else:
        outcome, code = "pass", EXIT_PASS

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "parameters": {
            "budget": args.budget,
            "seed": args.seed,
            "tolerance": args.tolerance,
            "threads": 1,  # a field of the report schema; evaluation is serial
            **({"n_max": args.n_max} if args.command == "verify-paper" else {}),
            **({"trials": args.trials} if args.command == "properties" else {}),
        },
        "cases": cases,
        "summary": {
            "total": len(cases),
            "passed": len(cases) - failed,
            "failed": failed,
            "gaps": gaps,
        },
        "outcome": outcome,
    }
    return report, code


def _error_report(command: str | None, exc: InputError) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "error": {"message": str(exc), "diagnostics": exc.diagnostics},
        "outcome": "input-error",
    }


def main(argv=None) -> int:
    t0 = time.monotonic()
    args = None
    try:
        args = build_parser().parse_args(argv)
        report, code = run_job(args)
    except InputError as exc:
        # the command is null when the command line itself did not parse
        sys.stdout.write(render_json(_error_report(getattr(args, "command", None), exc)))
        return EXIT_INPUT
    if args.format == "csv":
        sys.stdout.write(render_csv(report["cases"]))
    else:
        sys.stdout.write(render_json(report))
    print(f"elapsed {time.monotonic() - t0:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
