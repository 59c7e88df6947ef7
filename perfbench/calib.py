"""Calibration kernels: how fast this CPU runs right now.

On a shared machine a core is often slowed by a neighbour by 20-50% for
seconds, or a whole run, at a time.  Each operation is therefore timed
between runs of a fixed kernel, and its cost is reported rescaled to the
kernel's reference time:

    cost = op time * REF_NS[kind] / kernel time beside the op

A slowdown that stretches the operation stretches the kernel beside it as
well, so the cost stays put; a change to qforms moves only the operation.
The kernels use nothing from qforms.

  python  a truncated product of two 48-term integer lists in plain Python,
          the inner loop of the exact series and divisor-sum code; for
          every operation that runs mostly in the interpreter
  numpy   a running sup of |sum cos(2 pi sqrt(n x) + pi/4) / n^(3/4)| over
          n < 2^14 in fresh arrays, for the circle module's array scans and
          sums (the operations built with kernel="numpy").  Simpler array
          kernels (a libm call on a preallocated array, or the python
          kernel) tracked those operations' slowdowns two to six times
          worse.

REF_NS is each kernel's best time over 3000 runs on one vCPU of a 2.0 GHz
x86-64 VM (CPython 3.11, numpy 2.4), so costs read as time on that vCPU
when it runs undisturbed.  Python's own speed is not
factored out: both the kernel and the operation run on the same CPython.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

A = list(range(1, 49))
B = list(range(5, 53))


def python_kernel():
    out = [0] * 48
    for i, a in enumerate(A):
        for j in range(48 - i):
            out[i + j] += a * B[j]
    return out


def numpy_kernel():
    n = np.arange(1, 1 << 14, dtype=np.float64)
    terms = np.cos(2 * math.pi * np.sqrt(n * 3.3) + math.pi / 4) / n ** 0.75
    return float(np.max(np.abs(np.cumsum(terms))))


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}
REF_NS = {"python": 73_300, "numpy": 460_700}
REPS = 3  # kernel runs on each side of an operation


def kernel_ns(kind, reps=REPS):
    """Times of `reps` runs of the kernel, in ns, after one untimed run (the
    first in a fresh process is slow)."""
    fn = KERNELS[kind]
    clock = time.perf_counter_ns
    fn()
    out = []
    for _ in range(reps):
        t0 = clock()
        fn()
        out.append(clock() - t0)
    return out


def factor(kind, before, after):
    """Factor taking an operation's time to reference time, from the kernel
    times on either side of it.  The median of them, so that one
    interrupted kernel run does not count."""
    return REF_NS[kind] / statistics.median(before + after)
