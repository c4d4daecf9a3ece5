"""Job times scaled to a reference host speed.

On a shared virtual machine the same pure-Python work runs up to about 1.9x
slower for seconds to minutes at a time, with no steal time reported: the
vCPU is preempted, about 10 ms at a time, while other tenants load the
host.  A run of one commit can land in a slow spell and a run of the next in
a fast one.

So the harness times a fixed reference loop (a truncated product of two
series with ``Fraction`` coefficients: the same kind of work the package
does, but none of its code) every ``EVERY_S`` seconds from an interval
timer, inside jobs too, and before and after each set-up probe.  A verify
job is a child process, and cli_job.py samples inside it.  The wall time of
the samples inside a job is taken out of the job's time.  A job's time is
multiplied by ``NOMINAL_S`` over the reference time, interpolated between
samples and averaged over the job: it reads as the time the job would take
on a host where one reference loop takes ``NOMINAL_S``.

In 8-second windows of back-to-back n = 6 solves, scaling by this loop cut
the spread (quartile distance over median) of the windows' median job time
from 0.41 to 0.04.  A loop of ``Fraction`` sums with ever larger
denominators tracked the jobs less well (0.16): its time is mostly
big-integer gcds, and the jobs slowed 1.3 times as much as it did.

The reference runs in the measuring process with the garbage collector off,
so the heap the package keeps does not slow it.  A change that alters other
global interpreter state would still reach it, so the raw host reference time
is printed beside every run.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from contextlib import contextmanager
from fractions import Fraction

#: reference time, in seconds, of a host the scaled times refer to
NOMINAL_S = 0.02
#: seconds between reference samples
EVERY_S = 0.25


def reference_loop(length: int = 100) -> list[Fraction]:
    """Fixed work: the product of two series of ``length`` ``Fraction``
    coefficients, truncated at ``length`` terms (about 5,000 products)."""
    coefficients = [Fraction(k, k * k + 1) for k in range(1, length + 1)]
    product = [Fraction(0)] * length
    for i, a in enumerate(coefficients):
        for j, b in enumerate(coefficients[:length - i]):
            product[i + j] += a * b
    return product


class HostClock:
    """Reference samples of one process, and the scale they give at a time."""

    def __init__(self):
        self.times: list[float] = []   # midpoint of each sample
        self.scales: list[float] = []  # NOMINAL_S / reference time
        self.timer_s = 0.0  # wall time of the samples taken inside jobs
        self._busy = False

    def sample(self) -> float:
        """Time the loop once, after a short untimed one.

        The loop runs for about 20 ms, long enough to take in the
        hypervisor's ~10 ms preemptions, which are what slows the jobs; a
        shorter loop or the best of several would miss them.  The untimed
        loop first warms the vCPU, which runs slow for a few ms after the
        process has waited (on a verify child, say).
        """
        # with the collector off the loop's time does not depend on how many
        # objects the package keeps alive; its objects hold no cycles
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            begin = time.perf_counter()
            reference_loop(30)
            start = time.perf_counter()
            reference_loop()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
            self._busy = False
        self.times.append((start + end) / 2)
        self.scales.append(NOMINAL_S / (end - start))
        return time.perf_counter() - begin

    def sample_if_due(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def _tick(self, _signum, _frame) -> None:
        if not self._busy:
            self.timer_s += self.sample()

    @contextmanager
    def ticking(self):
        """Sample every EVERY_S seconds from an interval timer, in the
        middle of whatever the process is running; the samples' wall time
        accumulates in ``timer_s``."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def report(self) -> dict:
        """The samples, for ``merge`` in another process."""
        return {"times": self.times, "scales": self.scales, "timer_s": self.timer_s}

    def merge(self, report: dict) -> None:
        """Take in the samples another process took (``report``), for
        instance inside a job that ran as a child process.  perf_counter is
        the system-wide monotonic clock, so the times compare."""
        samples = sorted(zip(self.times + report["times"], self.scales + report["scales"]))
        self.times = [moment for moment, _scale in samples]
        self.scales = [scale for _moment, scale in samples]
        self.timer_s += report["timer_s"]

    def scale_at(self, moment: float) -> float:
        """The scale at ``moment``, interpolated between the samples around it."""
        right = bisect.bisect(self.times, moment)
        if right == 0:
            return self.scales[0]
        if right == len(self.times):
            return self.scales[-1]
        t0, t1 = self.times[right - 1], self.times[right]
        s0, s1 = self.scales[right - 1], self.scales[right]
        return s0 + (s1 - s0) * (moment - t0) / (t1 - t0)

    def mean_scale(self, start: float, end: float) -> float:
        """The time-weighted mean of the interpolated scale over [start, end]:
        for a job with samples inside it, its average host speed."""
        if end <= start:
            return self.scale_at(start)
        points = ([start] + self.times[bisect.bisect(self.times, start):
                                       bisect.bisect_left(self.times, end)] + [end])
        area = sum((right - left) * (self.scale_at(left) + self.scale_at(right)) / 2
                   for left, right in zip(points, points[1:]))
        return area / (end - start)

    def reference_ms(self) -> float:
        """Median raw reference time of the samples so far."""
        ordered = sorted(NOMINAL_S / scale for scale in self.scales)
        return ordered[len(ordered) // 2] * 1000  # upper median; no statistics import
