"""Host-speed calibration for the wall-time metrics.

A shared host does not run at one speed: other load on the machine slows
every process on it, by as much as 1.6x, in stretches that last from a
second to minutes. Thread CPU time slows just as much as wall time, so no
clock of the load process can tell a slower program from a slower host.

The runner therefore interleaves a fixed calibration kernel with the
requests: pure Python that shares no code with the program (big-integer
modular arithmetic, SHA-256, bytes and dict traffic, the kinds of work the
program's requests do). Each sample times one kernel call. A request's wall
time is scaled by ``REFERENCE_S / kernel time``, the kernel time being the
median of the samples nearest the request, so the wall-time metrics read as
milliseconds on a host where the kernel takes ``REFERENCE_S``. A change to
the program moves them; a change in the host's speed mostly does not.
"""

from __future__ import annotations

import bisect
import hashlib
import statistics
import time

clock = time.perf_counter

# The kernel's duration on the reference host: a 2-CPU Intel Xeon VM running
# CPython 3.11, at the fastest speed it showed.
REFERENCE_S = 0.0003
# At most one sample per this many seconds of loop time (about 3% of it).
INTERVAL_S = 0.01
# A request is scaled by the median of this many samples nearest to it.
NEIGHBOURS = 9

_PRIME = 2**255 - 19


def kernel(rounds: int = 200) -> bytes:
    """The calibration work; its result is returned so nothing is elided."""
    acc = 0x5DEECE66D
    table = {}
    digest = hashlib.sha256()
    for i in range(rounds):
        acc = pow(acc, 3, _PRIME) ^ i
        raw = acc.to_bytes(32, "big")
        table[raw[:6]] = table.get(raw[-6:], 0) + i
        digest.update(raw)
    return digest.digest()


class HostSpeed:
    """Kernel samples taken along a run, and the scale they give."""

    def __init__(self):
        kernel()            # warm up before the first sample
        self.times: list = []
        self.samples: list = []

    def sample(self) -> None:
        started = clock()
        kernel()
        self.samples.append(clock() - started)
        self.times.append(started)

    def maybe_sample(self) -> None:
        if not self.times or clock() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, at: float) -> float:
        """``REFERENCE_S`` over the median kernel time of the samples
        nearest to ``at`` (a ``perf_counter`` reading)."""
        index = bisect.bisect_left(self.times, at)
        low = max(0, min(index - NEIGHBOURS // 2, len(self.times) - NEIGHBOURS))
        return REFERENCE_S / statistics.median(self.samples[low:low + NEIGHBOURS])

    def overall(self) -> float:
        """The scale over every sample of the run."""
        return REFERENCE_S / statistics.median(self.samples)
