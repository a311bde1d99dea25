"""The reference kernel that normalises times to the machine's speed."""

import statistics
import time
from fractions import Fraction

# Nominal kernel time, about its median on a 2-vCPU x86-64 host running
# Python 3.11: times are reported in seconds of a host whose kernel takes this.
REF_S = 1.2e-3


def reference_s():
    """Time of a fixed pure-Python kernel (an exact harmonic sum), the
    median of five.  It moves with the machine's speed, not with
    braidmono's code, so times divided by it stay steady while the host
    speeds up and slows down."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 300):
            total += Fraction(1, i)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
