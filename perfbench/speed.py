"""Host-speed normalisation of measured times.

On a shared host the same code can run 1.8 times slower for seconds to
minutes at a stretch, so raw times of identical runs spread far wider
than any useful regression bound.  A fixed pure-Python calibration
kernel, part of the benchmark and independent of adjstats, is timed every
`PERIOD_S` while a child runs its requests.  Between two samples the host
speed is taken as KERNEL_REF_S over the median kernel time of the
nearby samples, and a measured interval is rescaled by integrating that
speed over it:

    t_ref = integral over the interval of KERNEL_REF_S / kernel_time(t) dt

so a result reads as the time the interval would take on a host where
the kernel takes KERNEL_REF_S.  The program's own slowdowns still show in
full, because the kernel does not run its code.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

KERNEL_REF_S = 150e-6  # kernel time that defines reference speed
PERIOD_S = 0.05  # sampling period while requests run
SMOOTHING = 2  # a sample's speed is the median over it and this many on each side
CALIBRATION_RUNS = 15  # kernel runs for a one-off speed reading

_BIG = 7**90
_LIST = list(range(1024))
_DICT = {i: i * i for i in range(1024)}


def kernel() -> int:
    """Fixed interpreter work: big-integer arithmetic, list and dict
    lookups.  It creates no container, so the garbage collector never
    runs inside it and the child's heap cannot change its time."""
    total = 0
    for i in range(600):
        total = (total + _BIG * _LIST[i & 1023] + _DICT[(i * 7) & 1023]) & 0xFFFFFFFF
    return total


def calibrate(runs: int = CALIBRATION_RUNS) -> float:
    """Median kernel time now."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Times the kernel from a SIGALRM handler every PERIOD_S until
    stopped; `samples` holds (start, duration) pairs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def normalize(durations: list[float], first: float, samples: list, fallback: float) -> list[float]:
    """Rescale back-to-back intervals starting at `first` to reference
    speed.  Speed is piecewise constant between sample starts, held
    before the first and after the last; with no samples it comes from
    the kernel time `fallback`."""
    if not samples:
        return [dur * KERNEL_REF_S / fallback for dur in durations]
    starts = [s[0] for s in samples]
    times = [s[1] for s in samples]
    speeds = [KERNEL_REF_S / statistics.median(times[max(0, j - SMOOTHING):j + SMOOTHING + 1])
              for j in range(len(times))]
    area = [0.0]  # integral of speed from starts[0] to starts[j]
    for j in range(1, len(starts)):
        area.append(area[-1] + (starts[j] - starts[j - 1]) * speeds[j - 1])

    def integral(t: float) -> float:
        j = max(0, bisect.bisect_right(starts, t) - 1)
        return area[j] + (t - starts[j]) * speeds[j]

    out = []
    t = first
    for dur in durations:
        out.append(integral(t + dur) - integral(t))
        t += dur
    return out
