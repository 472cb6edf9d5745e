"""Machine-speed correction for the benchmark's timings.

The benchmark runs on a few cores of a shared host, whose speed drifts by
tens of percent over seconds to minutes: the same request list took from
0.19 s to 0.30 s per call in successive 10 s windows.  Every timing the
benchmark reports is therefore divided by the machine's speed at the time,
measured with a fixed pure-Python reference loop that does not touch the
program.  The loop is timed before every request and after the last, and
just before and just after every set-up sample; then

    reported time = measured time * REF_NOMINAL_S / median(loop times)

with the loops on either side of the request (or of the set-up samples of
a run), so the figures are seconds on a machine that runs the loop in
REF_NOMINAL_S.  A change to the program moves the request times and not
the loop, so it shows in full; a spell of the host that slows both cancels
out.  Over 10 s windows the ratio of request time to loop time spread by
about a quarter as much as the request time itself.  The report prints the
raw times and the speed factor beside the corrected figures.
"""

from __future__ import annotations

import statistics
import time

REF_ITERS = 60_000
# Median loop time on the 2-vCPU Xeon the benchmark was built on; it only
# fixes the unit, so the corrected figures stay near the raw ones there.
REF_NOMINAL_S = 0.0050
# Loops timed just before and just after each set-up sample.
SETUP_LOOPS = 10


def reference_time() -> float:
    """Wall time of one pass of the reference loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_ITERS):
        acc += i * i % 7
    return time.perf_counter() - t0


def reference_times(count: int) -> list:
    return [reference_time() for _ in range(count)]


def speed_factor(samples) -> float:
    """REF_NOMINAL_S / median loop time: >1 when the host runs fast."""
    return REF_NOMINAL_S / statistics.median(samples)
