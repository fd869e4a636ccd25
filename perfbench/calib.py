"""Machine-speed calibration.

The benchmark's host changes speed by up to half within seconds, as other
tenants load the shared cores. Every timing is therefore taken next to
calibration samples: runs of a fixed kernel that does not use minmatrix
and whose work resembles the timed work. A timing is reported scaled by
the kernel's reference time over the mean of the samples just before and
just after it, that is, as it would read when the kernel takes its
reference time. The raw timings are kept in the benchmark's raw output.

Kernels:

  small    fraction-free elimination (written here, not minmatrix's) of a
           32 x 32 shifted min matrix, whose minors stay word-sized
  big      the same elimination of a 16 x 16 cumulative matrix of 64-bit
           increments, whose minors pass 64 bits at once
  startup  a fresh interpreter importing argparse, csv, decimal and json,
           for timings of whole processes (set-up, cold start, imports)
"""

import random
import subprocess
import sys
import time
from itertools import accumulate


def _eliminate(rows):
    rows = [row[:] for row in rows]
    prev = 1
    for step in range(len(rows) - 1):
        pivot_row = rows[step]
        pivot, tail = pivot_row[0], pivot_row[1:]
        for r in range(step + 1, len(rows)):
            row = rows[r]
            lead = row[0]
            rows[r] = [(pivot * x - lead * y) // prev for x, y in zip(row[1:], tail)]
        prev = pivot
    return rows[-1][0]


def _small():
    rows = [[6 + min(r, c) for c in range(1, 33)] for r in range(1, 33)]
    return lambda: _eliminate(rows)


def _big():
    rng = random.Random(2002)
    sums = list(accumulate(rng.choice((-1, 1)) * rng.randrange(2**63, 2**64) for _ in range(16)))
    rows = [[sums[min(r, c)] for c in range(16)] for r in range(16)]
    return lambda: _eliminate(rows)


def _startup():
    argv = [sys.executable, "-c", "import argparse, csv, decimal, json"]
    return lambda: subprocess.run(argv, check=True, capture_output=True)


#: kernel name -> (factory, runs per sample, reference ms). A sample is
#: the fastest of its runs, to shed one-off stalls. The reference times
#: are the kernels' medians on the reference machine (see README).
KERNELS = {
    "small": (_small, 2, 1.6),
    "big": (_big, 2, 1.6),
    "startup": (_startup, 1, 80.0),
}


class Calibrator:
    def __init__(self, kernel):
        factory, self._runs, self.ref_ms = KERNELS[kernel]
        self._kernel = factory()

    def sample_ms(self):
        best = None
        for _ in range(self._runs):
            start = time.perf_counter_ns()
            self._kernel()
            elapsed = time.perf_counter_ns() - start
            best = elapsed if best is None else min(best, elapsed)
        return best / 1e6

    def scale(self, before_ms, after_ms):
        """Factor that brings a timing taken between two samples to
        reference speed."""
        return self.ref_ms / ((before_ms + after_ms) / 2)
