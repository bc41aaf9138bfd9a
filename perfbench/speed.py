"""Machine-speed probe: op times on a shared, noisy machine rescaled to a fixed speed.

On a machine shared with other tenants the same op can take twice as long
from one second to the next, for minutes at a time, and process CPU time
slows down with it.  The probe times a fixed kernel before and after every
op, and every ``SAMPLE_INTERVAL_S`` during it; ``rate`` is the mean of
``1 / k`` over those kernel times ``k``.

Contention does not slow every kind of work alike: the kernel, a Python
loop over small arrays, slows about as much as the small ops, while the
large ops, which stream arrays of megabytes, slow less.  So an op's
normalised time is ``wall * (REFERENCE_S * rate) ** alpha``, the seconds it
would take on a machine where the kernel takes ``REFERENCE_S``, with one
fixed ``alpha`` per workload (``ALPHA``).  The exponents were fitted once,
from the baseline runs, and stay fixed: a run-by-run fit would depend on
the program under test, so a parent and a change with the same wall times
could report different times.  ``sensitivity`` still fits ``alpha`` from a
run's own ops, but only as a diagnostic.

The kernel is frozen here, so a change to the program cannot change the
yardstick.
"""

import math
import signal
import time
from collections import defaultdict

import numpy as np

# about the kernel's time on an idle core of the machine the baseline was
# recorded on (Intel Xeon, 2 vCPUs), so normalised times read close to wall
# times there
REFERENCE_S = 0.85e-3
SAMPLE_INTERVAL_S = 0.1
# workload -> alpha: the median of ``sensitivity`` over a first set of ten
# baseline runs per workload, rounded to a tenth; kept fixed from then on
ALPHA = {"expm_large": 0.7, "expm_small": 0.9, "studies": 0.9}
# below this spread of log kernel time within groups the fit has nothing to go on
MIN_LOG_SPREAD = 0.05

_rng = np.random.default_rng(20081118)
_SMALL = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_PACKED = np.triu(_rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96)), 1) * 0.01
_PACKED += np.eye(96) * 2.0
_RHS = np.ones(96, dtype=np.complex128)


def kernel():
    """Forward and back substitution sweeps on a fixed 96x96 packed LU, then small products."""
    x = _RHS.copy()
    for _ in range(2):
        for j in range(95):
            x[j + 1:] -= _PACKED[j + 1:, j] * x[j]
        for j in range(95, -1, -1):
            x[j] /= _PACKED[j, j]
            x[:j] -= _PACKED[:j, j] * x[j]
    y = x[:8]
    for _ in range(60):
        y = _SMALL @ y
        y = y / np.abs(y).max()
    return x, y


class SpeedProbe:
    """Samples the kernel around and during each timed interval.

    Between ``start`` and ``stop`` a timer signal takes a sample every
    ``interval`` seconds, so a long op is measured against the speed the
    machine had while it ran; the time spent sampling is taken out of the
    interval.  Use it as a context manager, which installs and removes the
    signal handler.
    """

    def __init__(self, interval=SAMPLE_INTERVAL_S):
        self.interval = interval
        kernel()  # first call pays for lazy set-up
        self.last = self.sample()
        self._samples = []
        self._paused = 0.0
        self._start = 0.0
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @staticmethod
    def sample():
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self._samples.append(self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        self._paused += time.perf_counter() - start

    def restart(self):
        """Take a fresh sample, for an interval that starts after a pause."""
        self.last = self.sample()

    def start(self):
        self._samples = [self.last]
        self._paused = 0.0
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        self._start = time.perf_counter()

    def stop(self):
        """End the interval; returns (wall seconds without sampling time, rate)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - self._start - self._paused
        self.last = self.sample()
        self._samples.append(self.last)
        return wall, sum(1.0 / k for k in self._samples) / len(self._samples)


def sensitivity(samples):
    """Fit ``alpha`` in ``log wall = c_kind + alpha * log(1 / rate)`` over (kind, wall, rate).

    Only the variation within a kind counts, since ops of one kind do the
    same work.  Each op weighs by its wall time: a long op's rate rests on
    many samples, a short op's on two.  Returns nan when the kernel time
    hardly varied.
    """
    groups = defaultdict(list)
    for kind, wall, rate in samples:
        groups[kind].append((-math.log(rate), math.log(wall), wall))
    sxx = sxy = total = 0.0
    for pts in groups.values():
        weight = sum(w for _, _, w in pts)
        mean_x = sum(x * w for x, _, w in pts) / weight
        mean_y = sum(y * w for _, y, w in pts) / weight
        sxx += sum(w * (x - mean_x) ** 2 for x, _, w in pts)
        sxy += sum(w * (x - mean_x) * (y - mean_y) for x, y, w in pts)
        total += weight
    if sxx < MIN_LOG_SPREAD**2 * total:
        return math.nan
    return sxy / sxx


def normalise(wall, rate, alpha):
    """Seconds at the reference speed."""
    return wall * (REFERENCE_S * rate) ** alpha
