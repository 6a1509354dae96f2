"""A fixed probe of the host's current speed, to scale measured times.

The benchmark host is shared: its speed swings by tens of percent over
spans of tens of seconds, as much for CPU time as for wall time.  A run
therefore runs this probe (a few milliseconds of small numpy calls and Python
arithmetic, the same mix pllab spends its time on) every half second, and
scales each measured time by REFERENCE_PROBE_S over the median of the probes
taken nearest to it.  Timings are then seconds on a host where the probe
takes REFERENCE_PROBE_S; the detail line of each run keeps the raw values.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_PROBE_S = 0.005  # typical probe time on the 2-core host of the first baseline
PROBE_EVERY_S = 0.5
NEAREST = 5  # probes whose median scales one measured time

_M = (np.arange(16).reshape(4, 4) % 5 + 1j * (np.arange(16).reshape(4, 4) % 3)).astype(complex)


def probe() -> float:
    """Seconds taken by a fixed piece of work."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(300):
        acc += float(np.linalg.svd(_M, compute_uv=False)[0])
        acc += sum(k * 0.5 for k in range(40))
    return time.perf_counter() - t0


class SpeedLog:
    """Probes taken along a run, on the perf_counter clock of one process."""

    def __init__(self):
        self.at: list = []
        self.took: list = []
        probe()  # the first call pays for loading LAPACK; keep it out of the log

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.at or now - self.at[-1] >= PROBE_EVERY_S:
            took = probe()
            self.at.append(now + took / 2)
            self.took.append(took)

    def scale(self, t: float) -> float:
        """Factor from a time measured around clock value t to reference seconds."""
        i = bisect.bisect_left(self.at, t)
        lo = max(0, min(i - NEAREST // 2, len(self.at) - NEAREST))
        return REFERENCE_PROBE_S / statistics.median(self.took[lo : lo + NEAREST])

    def overall_scale(self) -> float:
        """Factor over every probe so far: for one span such as a set-up."""
        return REFERENCE_PROBE_S / statistics.median(self.took)

    def to_json(self) -> list:
        return [self.at, self.took]

    @classmethod
    def from_json(cls, data) -> "SpeedLog":
        log = cls()
        log.at, log.took = list(data[0]), list(data[1])
        return log
