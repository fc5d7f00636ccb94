"""Host speed probe: request times scaled to a reference host speed.

The machines this benchmark runs on are shared, and their speed drifts by
20-30% within minutes, which would swamp the differences a benchmark has to
show.  So the harness times a fixed pure-Python loop (no distspec code)
right after every request, spending about PROBE_SHARE of the request's time
on it (at least MIN_REPS runs of the loop), and scales the request's time by
REFERENCE_PROBE_S over the median loop time of the probes just before and
just after it.  A reported second is therefore a second on a host where the
loop takes REFERENCE_PROBE_S (a 2-vCPU Intel Xeon cloud host running Python
3.11, in its faster state); the raw wall-clock times are printed beside
them.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_PROBE_S = 3.0e-4
PROBE_SHARE = 0.3
MIN_REPS = 2


def probe() -> int:
    """The fixed loop: integer arithmetic and dict stores."""
    s = 0
    d = {}
    for i in range(3000):
        s += (i * 7919) % 13
        d[i & 255] = s
    return s


class HostSpeed:
    def __init__(self):
        self._before: list[float] = []
        self._after: list[float] = []

    def sample(self, budget_s: float) -> None:
        """Run the probe for about budget_s, at least MIN_REPS times."""
        reps: list[float] = []
        spent = 0.0
        while spent < budget_s or len(reps) < MIN_REPS:
            t0 = time.perf_counter()
            probe()
            reps.append(time.perf_counter() - t0)
            spent += reps[-1]
        self._before, self._after = self._after, reps

    def scale(self) -> float:
        """Factor from wall seconds to reference seconds for the request
        between the last two samples."""
        return REFERENCE_PROBE_S / statistics.median(self._before + self._after)
