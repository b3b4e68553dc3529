"""Machine-speed calibration shared by the benchmark and its set-up probe.

The benchmark machine is shared, and its speed drifts by tens of percent
within minutes.  A fixed pure-Python kernel is therefore timed in short
slices next to the measured work.  The slowdown is the kernel's time over
REF_KERNEL_S, and a wall time divided by the slowdown measured beside it
is in reference seconds: what the work would take where the kernel takes
REF_KERNEL_S.
"""

import time

CAL_REPS = 20  # kernel calls per slice, about 10 ms
REF_KERNEL_S = 0.0005  # kernel time on an idle core of the reference machine


def kernel():
    d = {}
    for i in range(3000):
        k = (i * 7919) % 1021
        d[k] = d.get(k, 0) + i * i
    return sum(d.values())


class Calibration:
    """Kernel times of the slices taken so far."""

    def __init__(self):
        self.kernel_s = []  # mean kernel time of each slice
        self.spent_s = 0.0

    def slice(self):
        t0 = time.perf_counter()
        for _ in range(CAL_REPS):
            kernel()
        dt = time.perf_counter() - t0
        self.kernel_s.append(dt / CAL_REPS)
        self.spent_s += dt

    @property
    def slowdown(self) -> float:
        return sum(self.kernel_s) / len(self.kernel_s) / REF_KERNEL_S
