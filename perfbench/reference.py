"""A fixed computation that times the machine rather than the library.

On a shared machine the speed of a core drifts by up to 2x over minutes, as
other tenants come and go, so a raw wall time mostly records that drift.  The
benchmark times this computation before every set-up and after every pass,
and rescales its times to a machine on which the computation takes exactly
REFERENCE_S seconds: a time t becomes t * REFERENCE_S / (median reference time
of the run).  The computation uses no library code, so a change to the
library cannot move it.  It mixes interpreter-bound work, like the shooting
solver's stepping, with array work, like the grid stages, on arrays small
enough (1.6 MB) to add little to the peak memory of the run.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 0.18  # the time unit: nominal duration of reference_seconds()


def reference_seconds() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(800_000):
        acc += math.sqrt(i) * 1e-3
    # in place on buffers allocated once per call: a temporary per ufunc
    # would time the allocator, whose page-fault cost depends on what the
    # process freed before (glibc raises its mmap threshold after a large free)
    a = np.linspace(0.0, 1.0, 200_000)
    b, c = np.empty_like(a), np.empty_like(a)
    for _ in range(160):
        np.negative(a, out=b)
        np.exp(b, out=b)
        np.sqrt(a, out=c)
        np.multiply(b, c, out=b)
        acc += float(b.sum())
    if not math.isfinite(acc):
        raise ArithmeticError("reference computation produced a non-finite value")
    return time.perf_counter() - t0
