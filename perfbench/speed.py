"""The processor's speed, sampled while the benchmark runs.

The 2-CPU box the benchmark was made on changes speed by 30 % or more over
seconds to minutes (other guests share the host; CPU time tracks wall time
and steal time stays small), so raw times of one run differ from those of
the next run by more than any bound a regression check could use.

`Sampler` runs a fixed reference kernel from a SIGALRM handler at a fixed
interval while the program works, and keeps each sample's start
and duration.  A time measured over an interval is then reported at the
reference speed: its raw seconds, less the handler's own seconds inside
the interval, times REF_S over the median reference time near the interval.
A program that gets faster reads faster; a host that gets slower reads the
same, to the extent that the reference kernel slows as the program does.

The kernel mirrors the program's mix: complex exponentials summed with
compensation over small arrays (the quadrature's filter sums), one larger
array, and interpreter-bound scalar code.  It is the benchmark's own code
and shares nothing with ddlab, so no change to ddlab moves it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.1        # seconds between samples while passes run
REF_S = 2.5e-3        # about the kernel's time on one 2.1 GHz Xeon vCPU
NEAREST = 15          # samples that judge an interval holding fewer

_RNG = np.random.default_rng(20070101)
_SMALL = _RNG.uniform(0.0, 50.0, 128)
_LARGE = _RNG.uniform(0.0, 50.0, 4096)
_DELTAS = _RNG.uniform(0.0, 1.0, 12)


def _filter_sum(z, terms: int) -> float:
    total = np.full(z.shape, 0.5, dtype=complex)
    comp = np.zeros_like(total)
    for j in range(terms):
        term = (1 - 2 * (j % 2)) * np.exp(1j * z * _DELTAS[j])
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return float(np.abs(total).sum())


def reference_kernel() -> float:
    acc = _filter_sum(_SMALL, 12) + _filter_sum(_SMALL, 12) + _filter_sum(_SMALL, 12)
    acc += _filter_sum(_LARGE, 4)
    k = 0
    for j in range(16000):
        k += j % 7
    return acc + k


class Sampler:
    """Samples the kernel on a timer; scales intervals to the reference speed."""

    def __init__(self, interval: float):
        self.interval = interval
        self.starts = []          # perf_counter at each sample's start
        self.seconds = []         # each sample's duration
        self._busy = False
        self._previous = None

    def _sample(self) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.starts.append(t0)
        self.seconds.append(time.perf_counter() - t0)

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        self._sample()
        self._busy = False

    def sample(self, repeats: int) -> None:
        """Take `repeats` samples in a row, with the timer stopped."""
        for _ in range(repeats):
            self._sample()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        """Stop sampling and put the previous handler back; safe to repeat."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def raw(self, t0: float, t1: float) -> float:
        """The program's seconds in [t0, t1): less the samples taken in it."""
        a, b = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return (t1 - t0) - sum(self.seconds[a:b])

    def scaled(self, t0: float, t1: float) -> float:
        """The program's seconds in [t0, t1), at the reference speed.

        The speed is the median of the samples inside the interval, or of
        the NEAREST samples around it when it holds fewer.
        """
        a, b = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        while b - a < NEAREST and (a > 0 or b < len(self.starts)):
            if a > 0 and (b == len(self.starts) or t0 - self.starts[a - 1] <= self.starts[b] - t1):
                a -= 1
            else:
                b += 1
        if a == b:
            raise RuntimeError("no reference samples were taken")
        return self.raw(t0, t1) * REF_S / statistics.median(self.seconds[a:b])
