"""Run one pllab CLI job with the benchmark's spans installed.

    python3 bench/launcher.py SPAN_FILE [pllab arguments ...]

Imports pllab.cli (timed), rebinds the traced functions, calls
pllab.cli.main with the given arguments and exits with its code.  stdout is
left to pllab, so the report is byte-identical to a plain
``python3 -m pllab.cli`` run; the spans go to SPAN_FILE when the job ends.
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import pllab.cli

    import_s = time.perf_counter() - t0
    import tracing

    rec = tracing.Recorder()
    tracing.install(rec)
    rec.op_id = 0
    try:
        return pllab.cli.main(argv)
    finally:
        tracing.save(span_file, rec.spans(), {"counts": rec.counts, "import_s": import_s})


if __name__ == "__main__":
    sys.exit(main())
