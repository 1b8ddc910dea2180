"""Host-speed calibration of the benchmark's bounded times.

The benchmark runs on a few cores of a shared host. There, identical work
ran up to 1.5x slower for stretches of tens of seconds, so raw wall times
drifted between runs of the same code. :class:`SpeedProbe` measures how fast
the host runs right now. While the benchmark runs, a ``SIGALRM`` timer runs
a small fixed pure-Python kernel in the main thread, about every 50 ms. The
kernel is benchmark code, so a change to the program does not change it.
Three choices keep its samples clean:

- it runs in the main thread, so a single-threaded workload is paused while
  the kernel runs;
- it calls no numpy, so it never waits on the GIL in the middle of a sample;
- it is timed in thread CPU time, so time spent descheduled does not count.

:meth:`SpeedProbe.calibrate` turns the raw time of an interval into
*calibrated seconds*: the raw time, minus the probe's own time inside the
interval, scaled by ``REFERENCE_S / mean probe time inside the interval``.
That is the time the interval would have taken on a host where the kernel
takes ``REFERENCE_S``. On the 2-CPU shared host it was tuned on,
calibration brought the spread of ``cold``'s 13 s repetitions down from
6-10 % to about 3 % of their mean.

The probe's mean is taken over the samples inside the interval; with fewer
than ``MIN_SAMPLES`` there, over every sample of the run.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

#: Thread CPU time of one kernel call on the tuning host at its fastest.
REFERENCE_S = 5.0e-4

#: Seconds between samples.
INTERVAL_S = 0.05

#: Fewer samples than this inside an interval: use every sample so far.
MIN_SAMPLES = 5


def kernel() -> float:
    """Fixed pure-Python work: float arithmetic and small-dict stores."""
    table = {}
    total = 0.0
    for i in range(3000):
        total += (i * 0.5) % 7.0
        table[i & 63] = total
    return total


class SpeedProbe:
    """Samples the host's speed on a timer while it is started.

    A sample is ``(start, wall, cpu)``: when the kernel started
    (``perf_counter``), how long it took in wall time, and in thread CPU
    time. Use only from the main thread, and as a context manager, so the
    timer is always stopped and the previous handler restored.
    """

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.samples: List[Tuple[float, float, float]] = []
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        for _ in range(MIN_SAMPLES):  # so that every run has a fallback
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _sample(self, *_signal) -> None:
        start, cpu = time.perf_counter(), time.thread_time()
        kernel()
        cpu = time.thread_time() - cpu
        self.samples.append((start, time.perf_counter() - start, cpu))

    def calibrate(self, start: float, end: float) -> float:
        """Calibrated seconds of the ``perf_counter`` interval ``[start, end]``."""
        inside = [sample for sample in self.samples if start <= sample[0] < end]
        probe_s = sum(sample[1] for sample in inside)
        if len(inside) < MIN_SAMPLES:
            inside = self.samples
        speed = REFERENCE_S / statistics.fmean(sample[2] for sample in inside)
        return (end - start - probe_s) * speed

    def speed(self) -> float:
        """Mean host speed over every sample, relative to the reference host."""
        return REFERENCE_S / statistics.fmean(sample[2] for sample in self.samples)
