"""Host-speed calibration: report op times in reference seconds.

The virtual machines this benchmark runs on change speed by 20-45% over
seconds to minutes, and the two vCPUs drift independently.  A fixed
Python loop takes from 0.8 to 1.5 ms on the same core within minutes.
In host seconds the same work then reads up to a third slower or faster
from one run to the next, which is wider than the widest bound the
benchmark may set.

So while a phase runs, a ``SIGALRM`` every 0.1 s interrupts the main
thread between bytecodes and times a short fixed loop of ``Fraction``
and dict work, the kind the interpreter-bound layers do.  The time spent
in those samples (about 1.5%) is subtracted from every op and from the
phase wall.  Each op's time is then scaled by the square root of
``REFERENCE_S`` over the median of the samples taken while it ran, or
of the :data:`LOCAL_SAMPLES` samples nearest its middle when it ran
through fewer.  The phase wall is scaled by the ops' factors, weighted
by their time.

The factors are local because the host's speed swings within seconds:
one fuzz case run 24 times back to back, each time from cleared caches,
spread by 0.27-0.40 of its median in host seconds, by 0.05-0.13 with
each run scaled by the samples around it, and no less with every run
scaled by all samples.

The square root (:data:`STRENGTH`) is there because the loop reacts to
some changes of the host's state more than the workloads do, in either
direction: in one state the samples read 1.6 times slower while the
workloads ran 1.45 times faster; in another they read 1.5 times slower
while the workloads ran 1.2 times slower.  Over three sets of five to
ten runs per workload, taken in different host states (one set with a
variant of this sampler), full-strength factors left spreads
(interquartile range over median) of 0.03-0.32 on the timing metrics,
the host seconds 0.15-0.43, and half strength at most 0.17.

The factor measures the host, not the program, so a change that makes
the program faster reads faster by its full gain.  Every run also prints
the uncalibrated figures in host seconds.

Set-up time, the median of several set-ups taken seconds after the
phase, is scaled by the phase's time-weighted factor.  Between two sets
of ten runs, tune-search's set-up median moved by 29% in host seconds
and by 14% scaled so.  Scaling each set-up by samples taken right after
it made it less steady, not more.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction
from typing import List

#: The loop's time on the reference machine; it defines one "reference
#: second" (about one host second there).
REFERENCE_S = 0.0014
#: Seconds between samples.
INTERVAL_S = 0.1
#: Exponent applied to the measured speed factor (1: full strength).
STRENGTH = 0.5
#: Samples an op's factor rests on, at least.
LOCAL_SAMPLES = 5


def _loop() -> Fraction:
    total = Fraction(0)
    table = {}
    for i in range(150):
        value = Fraction(i, 7) + Fraction(3, i + 1)
        table[(i % 17, value.denominator % 5)] = value
        total += value
    return total


class HostClock:
    """Samples the host's speed on the main thread while entered."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: ``perf_counter`` at the start of each sample.
        self.times: List[float] = []
        #: Seconds spent sampling so far; ops subtract what fell inside them.
        self.paused = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _loop()
        spent = time.perf_counter() - start
        self.times.append(start)
        self.samples.append(spent)
        self.paused += spent

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._sample(None, None)

    def factor(self) -> float:
        """Reference seconds per host second over the phase."""
        return (REFERENCE_S / statistics.median(self.samples)) ** STRENGTH

    def local_factor(self, start: float, end: float) -> float:
        """Reference seconds per host second over ``[start, end]``."""
        times = self.times
        first = bisect.bisect_left(times, start)
        last = bisect.bisect_right(times, end)
        if last - first < LOCAL_SAMPLES:
            middle = bisect.bisect_left(times, (start + end) / 2)
            first = max(0, min(middle - LOCAL_SAMPLES // 2, len(times) - LOCAL_SAMPLES))
            last = first + LOCAL_SAMPLES
        return (REFERENCE_S / statistics.median(self.samples[first:last])) ** STRENGTH
