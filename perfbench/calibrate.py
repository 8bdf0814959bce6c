"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of one core drifts by a quarter or more
within seconds, as neighbours come and go.  ``speed_sample`` times a fixed
stdlib kernel (exact rational arithmetic and dict stores, the same kind of
work confalg does) just before and after each timed job, and a job's time
is scaled by ``REFERENCE_S / sample``.  The scaled numbers are seconds at
the reference speed: on a machine running the kernel in exactly
``REFERENCE_S`` they equal the raw wall times.  The kernel does not use
confalg, so no change to confalg can move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Median kernel time on the machine the benchmark was defined on (an Intel
# Xeon with two cores, Python 3.11).
REFERENCE_S = 0.0018


def _kernel() -> dict:
    total = Fraction(0)
    table = {}
    for i in range(1, 400):
        total += Fraction(i % 13 - 6, i % 7 + 1) * i
        table[(i, i % 5)] = total
    return table


def speed_sample() -> float:
    """Median time of five runs of the kernel, in seconds."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
