"""The machine's speed during a run, read from a fixed calibration kernel.

On a machine shared with other tenants the speed of one core drifts by tens
of percent over seconds to minutes, so two runs of the same code, each tens of
seconds long, can differ by a third however long they are.  A Speedometer
runs a fixed kernel for a fixed share of op time, between ops, so the kernel
times follow the speed at which the ops ran.  Each op's time is scaled by the
kernel times measured around it, to the speed at which the kernel takes
REFERENCE_KERNEL_S; the raw times stay in the run's detail line.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_KERNEL_S = 2.5e-4
INTERVAL_S = 0.025  # op time between two kernel runs: about 1% overhead
WINDOW_S = 0.5  # op time on either side of an op whose kernel runs scale it

_COEFFS = np.linspace(1.0, 2.0, 11).astype(complex)
_POINTS = np.linspace(-0.9, 0.9, 12)


def _kernel():
    """A mix like the program's hot paths: numpy-scalar Clenshaw steps, scalar
    math, and string and dict work."""
    acc = 0.0
    for x in _POINTS:
        b1 = b2 = np.zeros((), dtype=complex)
        for k in range(len(_COEFFS) - 1, 0, -1):
            b1, b2 = _COEFFS[k] + 2.0 * x * b1 - b2, b1
        acc += float((_COEFFS[0] + x * b1 - b2).real)
    for i in range(400):
        acc += math.log(1.0 + i) * math.sin(i)
    table = {str(i): repr(i * 0.5) for i in range(100)}
    return acc + len(",".join(table.values()))


class Speedometer:
    """Kernel times, each stamped with the op time that had passed before it."""

    def __init__(self):
        self.stamps = []
        self.times = []
        self._busy = 0.0
        self._owed = 0.0

    def run_kernel(self, times=1):
        for _ in range(times):
            start = time.perf_counter()
            _kernel()
            self.times.append(time.perf_counter() - start)
            self.stamps.append(self._busy)

    def after(self, busy_s):
        """Account for an op of busy_s: one kernel run per INTERVAL_S of op time."""
        self._busy += busy_s
        self._owed += busy_s
        runs = int(self._owed / INTERVAL_S)
        self._owed -= runs * INTERVAL_S
        self.run_kernel(runs)

    def scale(self):
        """Factor that turns a time of this run into reference-speed time."""
        if not self.times:
            self.run_kernel()
        return REFERENCE_KERNEL_S / float(np.mean(self.times))

    def scaled(self, latencies):
        """The latencies, in the order after() saw them, each at reference speed.

        An op is scaled by the kernel runs stamped within WINDOW_S of op time
        of its start or end, or by the whole run's when there are none.
        """
        self.scale()  # at least one kernel run
        latencies = np.asarray(latencies)
        ends = np.cumsum(latencies)
        starts = ends - latencies
        stamps, times = np.asarray(self.stamps), np.asarray(self.times)
        sums = np.concatenate(([0.0], np.cumsum(times)))
        lo = np.searchsorted(stamps, starts - WINDOW_S, side="left")
        hi = np.searchsorted(stamps, ends + WINDOW_S, side="right")
        counts = hi - lo
        local = np.where(counts > 0, (sums[hi] - sums[lo]) / np.maximum(counts, 1),
                         times.mean())
        return latencies * REFERENCE_KERNEL_S / local
