"""The host's speed, read from a fixed reference kernel run between ops.

The benchmark shares a few cores of a host whose CPU speed changes by up to
a factor of two within a second and drifts by 10 to 30 % over minutes, in
CPU time as well as wall time. Every round therefore times a fixed
pure-Python kernel before its first op and again whenever
CALIBRATE_EVERY_S of op time has passed, and scales each time it reports
to the reference speed: an interval from `start` to `end` is multiplied by
the mean of REFERENCE_S / t over the kernel times t sampled within
max(WINDOW_S, end - start) of it. REFERENCE_S / t is the host's speed
relative to the reference at that moment, and the interval's time at the
reference speed is its length times the mean relative speed during it. The
mean and not the median: the host switches between a fast and a slow state
every few hundred milliseconds, and over a long op the median would pick
one state where the op saw both. A reported time is thus the time the work
would take on a host where the kernel takes REFERENCE_S, the kernel's
median time on the 2-vCPU Intel Xeon VM the benchmark was written on.

The kernel does the kind of work the package does, small-int bit tricks,
tuple keys and dict updates, on a working set small enough to stay in the
L1 and L2 caches, and touches nothing of the package. It runs once untimed
to warm the caches and then once timed, with the garbage collector off, so
neither the package's heap nor what its last op left in the caches changes
the timed pass: only the host does. Kernel time is not counted in any op
or in `wall_s`.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

REFERENCE_S = 0.00085
CALIBRATE_EVERY_S = 0.04
WINDOW_S = 0.1


def _kernel() -> int:
    counts = {}
    acc = 0
    for i in range(1500):
        k = (i * 2654435761) & 0x3FFF
        key = (k, i & 7)
        counts[key] = counts.get(key, 0) + k.bit_count()
        acc ^= k | (i << 3)
    return acc


class Calibrator:
    """Kernel samples of one round, and the scale factors they give."""

    def __init__(self):
        self.starts = []
        self.samples = []
        self.spent = 0.0
        self._due = 0.0

    def sample(self, n: int = 1):
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(n):
                begin = time.perf_counter()
                _kernel()
                start = time.perf_counter()
                _kernel()
                end = time.perf_counter()
                self.starts.append(start)
                self.samples.append(end - start)
                self.spent += end - begin
        finally:
            if enabled:
                gc.enable()

    def maybe_sample(self):
        """Sample when CALIBRATE_EVERY_S of other work has passed since the
        last sample; the first call always samples."""
        if time.perf_counter() >= self._due:
            self.sample()
            self._due = time.perf_counter() + CALIBRATE_EVERY_S

    def kernel_s(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Factor from this round's seconds to reference seconds, over the
        whole round."""
        return _relative_speed(self.samples)

    def scale_at(self, start: float, end: float) -> float:
        """Factor for the interval from `start` to `end`, from the samples
        near it; the nearest sample when none is within the window."""
        reach = max(WINDOW_S, end - start)
        lo = bisect.bisect_left(self.starts, start - reach)
        hi = bisect.bisect_right(self.starts, end + reach)
        return _relative_speed(self.samples[lo:hi] or self.samples[max(0, lo - 1) : lo + 1])


def _relative_speed(kernel_times) -> float:
    return statistics.fmean(REFERENCE_S / t for t in kernel_times)
