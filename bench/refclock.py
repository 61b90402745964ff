"""A reference clock that cancels the speed drift of a shared machine.

On a shared host the same single-threaded work can take 40 % longer from
one minute to the next, because other tenants load the physical cores.
Sweeping only the program's time would measure the neighbours. So a run
also times a fixed pure-Python kernel, independent of the program, between
items, and reports its times converted to reference seconds: seconds on a
machine where the kernel takes NOMINAL_S. Both slow down together under
contention, so the ratio holds still while each alone drifts.
"""

from __future__ import annotations

import gc
import statistics
import time

# The unit: the kernel's mean time on the 2-vCPU Xeon VM (Python 3.11) the
# baseline was measured on. Changing it rescales every reported time.
NOMINAL_S = 0.004
SAMPLE_EVERY_S = 0.1  # about 4 % of a run goes to the kernel


def kernel() -> int:
    """Dict, tuple and hash work of the kind the program's searches do."""
    acc = 0
    cells: dict[int, int] = {}
    for i in range(10000):
        key = (i * 7919) % 97
        cells[key] = cells.get(key, 0) + 1
        acc ^= hash((key, i & 15))
    return acc


class ReferenceClock:
    def __init__(self):
        self.samples: list[float] = []
        self._due = 0.0

    def sample(self):
        """Time the kernel once, with the collector off so heap size cannot matter."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t0)
        finally:
            if was_enabled:
                gc.enable()
        self._due = time.perf_counter() + SAMPLE_EVERY_S

    def tick(self):
        """Sample when SAMPLE_EVERY_S has passed since the last sample."""
        if time.perf_counter() >= self._due:
            self.sample()

    def scale(self) -> float:
        """Factor from this run's seconds to reference seconds."""
        return NOMINAL_S / statistics.fmean(self.samples)
