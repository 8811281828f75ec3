"""Host speed, read from a fixed reference kernel run next to the timed work.

The host is shared.  Over tens of seconds the wall time and the CPU time of
the same job both swing by up to a third, in step on every job kind, so ten
runs of the same code can spread past the bounds in BENCHMARK.json.  A
longer run does not average this out: the swings last about as long as a
whole run.  The benchmark therefore samples a kernel of its own, which
calls nothing in the package, just before every timed job and around every
timed set-up.  Each time is reported in reference seconds: the
measured wall time times ``REFERENCE_S`` over the median kernel time sampled
with it.  While the host runs at the speed it had when ``REFERENCE_S`` was
measured, a reference second is a wall-clock second.  The run prints the raw
wall-clock figures too.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time over 2000 samples on a 2-core Xeon (2.1 GHz) host with
# Python 3.11 and numpy 2.
REFERENCE_S = 0.0018

_LINE = "F000123,P3_family_042,Gauteng,C,African,Male,1234.56,0.0812"
_GRID = np.linspace(0.0, 1.0, 20_000)


def kernel() -> float:
    """Wall time of one run of fixed work shaped like the workloads' mix:
    string splitting, float parsing, formatting and dict inserts in the
    interpreter, then vectorised numpy arithmetic and a sort."""
    began = time.perf_counter()
    acc, rows = 0.0, {}
    for k in range(1500):
        fields = _LINE.split(",")
        x = float(fields[6]) * k
        acc += x * 1e-6 - acc * 1e-3
        rows[f"{k}:{x:.3f}"] = fields
    np.sort(np.sin(_GRID * acc))
    return time.perf_counter() - began


class Gauge:
    """Kernel samples taken since the last ``scale`` call."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, count: int) -> None:
        """Keep ``count`` kernel times.  One more run goes first and is
        dropped: after other work the kernel's data is out of cache, and how
        far out depends on what that work was."""
        kernel()
        self.samples.extend(kernel() for _ in range(count))

    def scale(self) -> float:
        """Reference seconds per wall-clock second over the samples taken
        since the last call; multiply the wall times timed among them by it."""
        factor = REFERENCE_S / statistics.median(self.samples)
        self.samples = []
        return factor
