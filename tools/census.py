"""Bracket census: pllab's certified brackets over fixed grids of elements.

    python3 tools/census.py record ROOT OUT
    python3 tools/census.py compare A B

``record`` imports pllab from ROOT/src and the benchmark pairs from
ROOT/bench, brackets every element of the grids below with the default
budget and seed, and writes OUT, a JSON object mapping each grid name to its
brackets in grid order.  A bracket records, for each norm it runs, the lower
and upper bound, the family label of the upper witness, the certificate of
the lower witness, ``gap/upper`` and whether it is closed (``has_gap`` is
False).  Each element is ``standard_normal((d, m)) + 1j *
standard_normal((d, m))`` scaled to unit Frobenius norm, drawn in the grid's
order from its own ``np.random.default_rng``:

* ``probe``: the 13 pairs of ``bench/workloads.PAIRS`` at d = 1..3, drawn
  pair by pair from ``default_rng(0)``; pl and l, 39 brackets;
* ``swapped``: the probe grid with the two factors of each pair exchanged and
  each element passed through ``tensorlab._swap``; both tensor norms are
  commutative, so its brackets bound the same numbers;
* ``win-count``: ``default_rng(100..103)``, one generator per draw, each over
  the 13 pairs at d = 1..4; pl and l, 208 brackets;
* ``pool-pair``: the left factors of ``POOL_LEFT`` against the 14 entries of
  ``suites.quantization_pool()`` at d = 1..3, drawn left by left, then right
  by right, from ``default_rng(7)``; pl only, 168 brackets;
* ``pool-pair-swapped``: the pool-pair grid with the factors exchanged, as
  ``swapped`` is to ``probe``; pl only.

``compare`` prints, per grid and norm, both files' closed counts and mean
``gap/upper``.  It then lists every bracket whose lower fell or whose upper
rose by more than ``RTOL`` relative from A to B, and every bracket that one
file lacks, and exits 1 when there is any.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
from pathlib import Path

import numpy as np

RTOL = 1e-12
GRIDS = ("probe", "swapped", "win-count", "pool-pair", "pool-pair-swapped")
POOL_LEFT = (  # name -> Quantization.from_dict descriptor
    ("max-l1", {"kind": "max", "params": {"base": {"kind": "lp", "dim": 2, "p": 1.0, "weights": [1.0, 2.0]}}}),
    ("max-euclidean", {"kind": "max", "params": {"base": {"kind": "euclidean", "dim": 2}}}),
    ("max-lp3", {"kind": "max", "params": {"base": {"kind": "lp", "dim": 2, "p": 3.0}}}),
    ("lp1", {"kind": "lp", "dim": 2, "params": {"p": 1.0, "weights": [1.0, 0.5]}}),
)


def _unit(rng, d: int, m: int):
    U = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
    return U / np.linalg.norm(U)


def _bracket(b) -> dict:
    return {
        "lower": float(b.lower),
        "upper": float(b.upper),
        "family": b.upper_witness.label,
        "certificate": b.lower_witness.get("certificate"),
        "gap_rel": float(b.gap / b.upper),
        "closed": not b.has_gap,
    }


def _elements(grid: str):
    """(key, E, F, U, norms) for each bracket of one grid, in grid order."""
    import workloads as wl
    from pllab import Quantization
    from pllab.suites import quantization_pool
    from pllab.tensorlab import _swap

    pairs = [tuple(map(Quantization.from_dict, pair)) for pair in wl.PAIRS]
    if grid in ("probe", "swapped"):
        rng = np.random.default_rng(0)
        cells = [(f"{i}/{d}", E, F, _unit(rng, d, E.dim * F.dim))
                 for i, (E, F) in enumerate(pairs) for d in (1, 2, 3)]
        norms = ("pl", "l")
    elif grid == "win-count":
        cells = []
        for draw in range(100, 104):
            rng = np.random.default_rng(draw)
            cells += [(f"{draw}/{i}/{d}", E, F, _unit(rng, d, E.dim * F.dim))
                      for i, (E, F) in enumerate(pairs) for d in (1, 2, 3, 4)]
        norms = ("pl", "l")
    elif grid in ("pool-pair", "pool-pair-swapped"):
        rng, cells = np.random.default_rng(7), []
        for name, desc in POOL_LEFT:
            E = Quantization.from_dict(desc)
            cells += [(f"{name}/{j}/{d}", E, F, _unit(rng, d, E.dim * F.dim))
                      for j, F in enumerate(quantization_pool()) for d in (1, 2, 3)]
        norms = ("pl",)
    else:
        raise ValueError(f"unknown grid {grid!r}; the grids are {', '.join(GRIDS)}")
    for key, E, F, U in cells:
        if grid.endswith("swapped"):
            E, F, U = F, E, _swap(U, E.dim, F.dim)
        yield key, E, F, U, norms


def record(root: Path, grids=GRIDS) -> dict:
    """The brackets of each named grid, by grid and then by key."""
    for path in (str(root / "src"), str(root / "bench")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from pllab import l_norm_bracket, pl_norm_bracket

    run = {"pl": pl_norm_bracket, "l": l_norm_bracket}
    return {grid: {key: {norm: _bracket(run[norm](E, F, U)) for norm in norms}
                   for key, E, F, U, norms in _elements(grid)} for grid in grids}


def summary(records: dict) -> dict:
    """(grid, norm) -> (closed count, bracket count, mean gap/upper)."""
    out = {}
    for grid, brackets in records.items():
        for norm in ("pl", "l"):
            rows = [b[norm] for b in brackets.values() if norm in b]
            if rows:
                out[grid, norm] = (sum(r["closed"] for r in rows), len(rows),
                                   sum(r["gap_rel"] for r in rows) / len(rows))
    return out


def regressions(a: dict, b: dict) -> list:
    """Lines naming each bracket whose lower fell or upper rose by more than
    RTOL relative from a to b, or that only one of them has."""
    lines = []
    for grid in sorted(a.keys() | b.keys()):
        ga, gb = a.get(grid, {}), b.get(grid, {})
        for key in sorted(ga.keys() | gb.keys()):
            if key not in ga or key not in gb:
                lines.append(f"{grid}/{key}: only in {'A' if key in ga else 'B'}")
                continue
            for norm in sorted(ga[key].keys() | gb[key].keys()):
                x, y = ga[key].get(norm), gb[key].get(norm)
                if x is None or y is None:
                    lines.append(f"{grid}/{key} {norm}: only in {'A' if y is None else 'B'}")
                elif y["lower"] < x["lower"] * (1 - RTOL):
                    lines.append(f"{grid}/{key} {norm}: lower fell {x['lower']!r} -> {y['lower']!r}")
                elif y["upper"] > x["upper"] * (1 + RTOL):
                    lines.append(f"{grid}/{key} {norm}: upper rose {x['upper']!r} -> {y['upper']!r}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 3 or argv[0] not in ("record", "compare"):
        print(__doc__, file=sys.stderr)
        return 2
    if argv[0] == "record":
        records = record(Path(argv[1]).resolve())
        Path(argv[2]).write_text(json.dumps(records, indent=1) + "\n")
        print(f"{sum(map(len, records.values()))} brackets of {len(records)} grids written to {argv[2]}")
        return 0
    a, b = (json.loads(Path(p).read_text()) for p in argv[1:])
    sa, sb = summary(a), summary(b)
    for grid, norm in {**sa, **sb}:
        (ca, na, ma), (cb, nb, mb) = (s.get((grid, norm), (0, 0, float("nan"))) for s in (sa, sb))
        print(f"{grid:18s} {norm:2s}  closed {ca:3d} of {na:3d} -> {cb:3d} of {nb:3d}  "
              f"mean gap/upper {ma:.4f} -> {mb:.4f}")
    lines = regressions(a, b)
    for line in lines:
        print(line)
    print(f"{len(lines)} brackets with a lower that fell or an upper that rose by more than {RTOL:g} relative")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
