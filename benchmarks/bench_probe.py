"""A fixed stdlib-only computation that gauges the machine's current speed.

The benchmark runs on shared hosts whose speed drifts by a quarter or more
over minutes, which moves every raw time of a run together.  A pass times
this probe between its queries; a pass's time divided by the median probe
time cancels most of that drift, because both run in the same process at
nearby moments.  The probe imports nothing from ``tasep2c`` and its work never
changes, so no change to the package can move it.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction
from statistics import median

#: Query time that may go by before the probe samples again.
INTERVAL_S = 0.2
#: Probe runs per sample.  A fixed count keeps every sample alike, so the
#: median weighs each sampled moment of the pass the same.
RUNS_PER_SAMPLE = 2


def probe_once() -> int:
    """Interpreter-bound work like the package's: Fractions, big ints, dicts, sorting."""
    acc = Fraction(0)
    for k in range(1, 200):
        acc += Fraction(k * k + 1, 3 * k + 7)
    x = 1
    for k in range(1, 1500):
        x = (x * 6364136223846793005 + k) % (1 << 256)
    counts: dict[int, int] = {}
    for k in range(10_000):
        counts[k % 1013] = counts.get(k % 1013, 0) + k
    ordered = sorted((k * 7919) % 10007 for k in range(5_000))
    return acc.numerator % 97 + x % 89 + len(counts) + ordered[0]


class Probe:
    """Samples the probe whenever INTERVAL_S of other work has gone by."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._last = clock()

    def sample(self) -> None:
        # The probe frees all it allocates by reference counting.  With the
        # cyclic collector off, a collection due to the workload's objects
        # cannot fall inside the probe, whose time would then grow with the
        # workload's heap.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        began = self.clock()
        for _ in range(RUNS_PER_SAMPLE):
            started = self.clock()
            probe_once()
            self.samples.append(self.clock() - started)
        self._last = self.clock()
        if gc_was_enabled:
            gc.enable()
        self.spent_s += self._last - began

    def maybe_sample(self) -> None:
        if self.clock() - self._last >= INTERVAL_S:
            self.sample()

    def median_s(self) -> float:
        return median(self.samples)
