"""Machine-speed reference for timing on a shared host.

On a few cores of a shared host the speed of the same Python code drifts
by tens of percent from one second to the next, with the load of other
tenants.  The benchmark therefore reports its times at a fixed reference
speed: alongside the workload it runs a small fixed pure-Python kernel
(`reference_work`) every `PERIOD` seconds, from a SIGALRM handler, so that
it is sampled also inside a long solve, and scales each measured interval
by the kernel's mean speed around it, relative to a kernel duration of
`REFERENCE_S`.  A slowdown of the whole host moves the kernel and the
workload together and cancels out, while a change to the package moves
only the workload.  `REFERENCE_S` is about the kernel's duration between
solves on the 2-vCPU Xeon host where the baseline was measured, so the
figures there read close to wall time.

Importing this module imports nothing but the standard library, so a
sampler started before `riskroute` is imported does not shift import time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD = 0.1             # seconds between kernel samples
KERNEL_ROUNDS = 1000     # about 3 ms per sample
REFERENCE_S = 3.5e-3     # kernel duration that counts as reference speed
NEAREST = 2              # fewest samples an interval is scaled by


def _edge_cost(x: float, a: float, b: float) -> float:
    return a + b * x * x


def reference_work() -> float:
    """Interpreter-bound work of the package's kind: float arithmetic,
    function calls, attribute, list and dict access."""
    flows = [0.5 * k for k in range(16)]
    costs = {}
    total = 0.0
    for r in range(KERNEL_ROUNDS):
        for k in range(len(flows)):
            x = flows[k]
            c = _edge_cost(x, 1.0, 0.25)
            costs[k] = c
            total += c if c < 50.0 else c * 0.5
        flows[r & 15] = costs[(r + 3) & 15] * 1e-3
    return total


class SpeedSampler:
    """Samples `reference_work` every PERIOD seconds while entered.

    `work(start, end)` turns a `time.perf_counter` interval into seconds at
    reference speed, leaving out the samples' own time.  Use one sampler
    per process; it owns SIGALRM while entered.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def sample(self, *_args) -> None:
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def __enter__(self) -> "SpeedSampler":
        for _ in range(NEAREST):
            self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(NEAREST):
            self.sample()

    def sampled_s(self, start: float, end: float) -> float:
        """Seconds of [start, end] spent in samples."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.starts, end)
        return sum(min(end, self.ends[i]) - max(start, self.starts[i])
                   for i in range(lo, hi))

    def speed(self, start: float, end: float) -> float:
        """Mean speed around [start, end], relative to reference speed.

        The samples are those taken inside [start, end] and within PERIOD
        of it, or the NEAREST samples when there are fewer.  The host's
        speed changes within a second, so the nearest samples track it
        better than a wider window that averages out the kernel's own
        noise.  The samples are evenly spaced in time, so the
        time-averaged speed is the mean of REFERENCE_S / duration: the
        harmonic mean of the durations, which also keeps a sample slowed
        by an interrupt from weighing much."""
        lo = bisect.bisect_left(self.starts, start - PERIOD)
        hi = bisect.bisect_right(self.starts, end + PERIOD)
        if hi - lo < NEAREST:
            middle = bisect.bisect_left(self.starts, 0.5 * (start + end))
            lo = max(0, min(middle - NEAREST // 2, len(self.starts) - NEAREST))
            hi = lo + NEAREST
        return REFERENCE_S / statistics.harmonic_mean(self.durations[lo:hi])

    def work(self, start: float, end: float) -> float:
        """Seconds at reference speed that [start, end] took."""
        return (end - start - self.sampled_s(start, end)) * self.speed(start, end)
