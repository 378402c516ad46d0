"""A sampler of the host's speed, taken during the measured work itself.

On a shared host the speed of one CPU drifts by up to 2x over seconds to
minutes, and even the best time of a multi-second request moves with it.
While a batch runs, a timer signal interrupts it every ``PERIOD_S`` seconds
and times one run of ``reference``, a fixed computation that lives here,
outside the program.  A batch's time divided by the mean reference time
during it is the batch's size in units of the reference, which the host's
speed of the moment cancels out of.  A change to the program moves it; the
host's drift hardly does.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

#: seconds between samples; one sample takes about 0.5 ms, so about 1%
PERIOD_S = 0.05


def reference() -> tuple:
    """Fixed pure-Python work in the program's own mix: a big-integer
    recurrence, Fraction arithmetic and dict updates."""
    a, b, c = 0, 1, 1
    for _ in range(300):
        a, b, c = b, c, 2 * c + a
    x = Fraction(0)
    for k in range(1, 40):
        x += Fraction(k, k * k + 3) * Fraction(3, k + 1)
    d: dict = {}
    for k in range(600):
        d[k % 97] = d.get(k % 97, 0) + k
    return c, x, d


class SpeedSampler:
    """Times ``reference`` on SIGALRM while ``running``.  ``spent`` is the
    total time taken by the samples, so that callers can take it out of
    the times they measure around the interrupted work."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        start = perf_counter()
        reference()
        self.samples.append(perf_counter() - start)
        self.spent += perf_counter() - start

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
