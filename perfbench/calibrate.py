"""A fixed reference computation that measures how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose speed switches
between a fast and a slow mode every second or so, and whose share of slow
time drifts over minutes as neighbours come and go. A `Sampler` measures
that speed during the timed calls themselves: a timer signal interrupts
the pass every INTERVAL_S, and the handler times one `sample` of fixed work
in the same thread. A sample is a sparse product of two fixed polynomials,
written out with plain dicts, tuples and Fractions, so it exercises the
interpreter the way the `MultiPoly` kernel does, but it imports nothing
from eulersym: no change to the program can change it. The runner scales
each pass by REF_SAMPLE_S over the mean sample of that pass, and each setup
probe by the mean of samples it takes just before and after the probe, so
that drift of the host cancels and a change to the program does not.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

# About the mean seconds of one sample on the reference host (2-vCPU
# x86_64, Python 3.11.7). Scaled times are in seconds on a host where a sample takes this long.
REF_SAMPLE_S = 0.0008
INTERVAL_S = 0.025

_A = {
    tuple(sorted({(f"x{i % 5}", 1 + i % 3), (f"y{i % 7}", 1 + i % 2)})): Fraction(i + 1, 1 + i % 4)
    for i in range(12)
}
_B = {
    tuple(sorted({(f"x{i % 6}", 1 + i % 2), ("z", 1 + i % 4)})): Fraction(2 * i - 7, 1 + i % 5)
    for i in range(10)
}


def sample() -> float:
    """Wall time of one sparse product of the fixed polynomials."""
    start = perf_counter()
    out: dict = {}
    for m1, c1 in _A.items():
        for m2, c2 in _B.items():
            exps = dict(m1)
            for var, e in m2:
                exps[var] = exps.get(var, 0) + e
            mono = tuple(sorted(exps.items()))
            s = out.get(mono, Fraction(0)) + c1 * c2
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return perf_counter() - start


class Sampler:
    """Takes a sample every INTERVAL_S of wall time while started, in the signal handler.

    `spent_s` is the wall time spent in the handler, which the caller takes
    off the time of whatever it was timing.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _handler(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(sample())
        self.spent_s += perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
