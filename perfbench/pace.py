"""Machine-speed normalisation with fixed reference work.

The benchmark runs on a few cores of a shared host, whose speed drifts by
20-30% over phases of seconds to minutes: the same pass of the same code
takes 3.9 s for a minute and then 5.0 s for the next.  Phases that long
survive any median taken inside a 30 s run.  So the benchmark interleaves
reference work that does not touch convlab with the timed work and scales
each time to a machine on which the reference takes a fixed nominal time.
The raw times are in the report lines.

In-process work (`Pace`): after every timed op, slices of a kernel that
mixes numpy array arithmetic with an interpreted loop, like the closed-form
term generators; one slice per SLICE_EVERY_S of the op's wall time, at
least one.  The op's time is scaled by REF_SLICE_S / (mean slice time).
Over 32 sweep passes on a 2-vCPU VM the coefficient of variation of the
pass time was 0.12 raw and 0.034 scaled.

Child processes (`ChildPace`): the in-process kernel does not track the
speed of interpreter start-up (timed just after a child exits, its cv was
0.31), so beside the timed children the benchmark starts reference
children that import numpy and scipy.integrate, as `import convlab` does,
and the run's times are scaled by REF_CHILD_S / (median reference child
time).  Over
99 cold `convlab list` commands, the cv of 8-command means was 0.058 raw
and 0.025 scaled.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

REF_SLICE_S = 1e-3
SLICE_EVERY_S = 0.05
WARMUP_SLICES = 20
REF_CHILD_ARGV = [sys.executable, "-c", "import numpy, scipy.special, scipy.integrate"]
REF_CHILD_S = 1.0


def kernel_slice():
    a = np.arange(1, 20001, dtype=float)
    total = float((a ** -1.37).sum() + np.cumsum(np.sin(a))[-1])
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    return total + acc


class Pace:
    """Times kernel slices after each op and scales the op's wall time."""

    def __init__(self, clock=time.perf_counter, kernel=kernel_slice):
        self.clock = clock
        self.kernel = kernel
        self.slice_s = 0.0   # summed slice time, for the report
        self.slices = 0
        for _ in range(WARMUP_SLICES):
            kernel()

    def scale(self, wall):
        """Run the slices that follow an op of `wall` seconds and return
        its wall time at the reference speed."""
        n = 1 + int(wall / SLICE_EVERY_S)
        t0 = self.clock()
        for _ in range(n):
            self.kernel()
        mean = (self.clock() - t0) / n
        self.slice_s += mean * n
        self.slices += n
        return wall * REF_SLICE_S / mean

    def speed(self):
        """Reference slice time over the mean measured one (1 = reference)."""
        return REF_SLICE_S * self.slices / self.slice_s if self.slices else 1.0


class ChildPace:
    """Times reference children beside timed children; `run(argv)` starts
    one child and returns its wall time."""

    def __init__(self, run):
        self.run = run
        self.walls = []

    def sample(self):
        self.walls.append(self.run(REF_CHILD_ARGV))

    def speed(self):
        """Reference child time over the median measured one (1 = reference)."""
        return REF_CHILD_S / statistics.median(self.walls)

    def scale(self, wall):
        return wall * self.speed()
