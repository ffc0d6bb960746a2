"""A fixed pure-Python loop, timed before, during and after every measurement.

The reference machine is a shared VM whose speed changes in phases: in
slow phases every process, this loop included, runs 1.5 to 4 times
slower, in CPU time as much as in wall time, and the speed also drifts
from second to second.  A round or a set-up is rescaled to the speed at
which one slice of the loop takes ``SLICE_S``:

    seconds at reference speed
        = seconds * (SLICE_S / mean slice time) ** SLOWDOWN_EXPONENT

where the slices are timed just before and just after the measurement
and, for rounds, every ``SAMPLE_EVERY_S`` during it from a timer signal.
The slices sample the machine at even intervals of wall time, so their
mean is the machine's average slowness over the measurement.  Time spent
in slices is taken out of the jobs' times.

The engine slows more than the loop when the host does: over the 408
rounds of ten runs of each workload, log round time against log mean
slice time had a slope of 1.15 to 1.49 per workload (correlation 0.88
to 0.95), and 1.2 to 1.4 in a separate in-process experiment.  ``SLOWDOWN_EXPONENT`` is
that slope, rounded down.  Parent and change runs in the same phase get
the same factor, so the exponent cannot favour either.

The loop does not touch the engine, so a change to the engine cannot
move it.  ``SLICE_S`` is one slice's median time on the reference
machine (2 vCPUs, CPython 3.11) in a quiet period; it only sets the scale.
"""

from __future__ import annotations

import signal
import statistics
import time

SLICE_S = 0.0023
SLOWDOWN_EXPONENT = 1.3
BRACKET_SLICES = 5
SAMPLE_EVERY_S = 0.2


def reference_work() -> int:
    total = 0
    for i in range(30_000):
        total += i * i % 7
    return total


def slice_s() -> float:
    """Wall seconds of one slice of the loop, now."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def bracket(count: int = BRACKET_SLICES) -> list[float]:
    return [slice_s() for _ in range(count)]


def at_reference_speed(seconds: float, slices: list[float]) -> float:
    """``seconds`` rescaled by the slices timed around and during them."""
    return seconds * (SLICE_S / statistics.fmean(slices)) ** SLOWDOWN_EXPONENT


class Sampler:
    """Times a slice every ``SAMPLE_EVERY_S`` of wall time, from SIGALRM.

    ``spent`` is the wall time the slices took, so callers can take it
    out of what they measure.
    """

    def __init__(self) -> None:
        self.slices: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_work()
        elapsed = time.perf_counter() - start
        self.slices.append(elapsed)
        self.spent += elapsed

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self) -> list[float]:
        """The slices timed since the last call."""
        taken, self.slices = self.slices, []
        return taken
