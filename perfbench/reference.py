"""The host's speed, read from a fixed pure-Python loop timed next to the workload.

The host this benchmark was built on runs a process at speeds that differ by
up to about 1.5 times, and switches between them within seconds. Pure-Python
code, numpy elimination and interpreter start-up all slow down together. A
short slice of this fixed loop, timed on the same CPU as the workload, tells
how fast the host is at that moment. A measured interval is reported at the
speed of the loop's nominal slice time:

    scaled = measured * NOMINAL_S / (mean slice time around the interval)

The mean leaves out the slowest and the fastest tenth of the slices, so that
a slice the host preempted does not move it, and it follows a switch of
speed during the interval, which a median would not.

The loop is not fatpoints code, so no change to the package moves it.
"""
from __future__ import annotations

import signal
import time
from statistics import fmean

LOOPS = 25_000  # one slice: about 2 ms
# seconds per slice: about the middle of the 0.0016 to 0.0028 s that a slice
# takes on the 2-vCPU Xeon host of the README
NOMINAL_S = 0.002
# a slice every 50 ms while a call runs: about 4% of its time, taken off again
INTERVAL_S = 0.05
READING_SLICES = 40  # slices in one reading before or after a set-up


def slice_s() -> float:
    """Time one slice of the fixed loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def reading_s() -> float:
    """Trimmed mean slice time over READING_SLICES slices in a row."""
    return trimmed_mean([slice_s() for _ in range(READING_SLICES)])


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and the highest tenth of the values."""
    cut = len(values) // 10
    return fmean(sorted(values)[cut:len(values) - cut])


def scaled(seconds: float, slices: list[float]) -> float:
    """``seconds`` at the nominal speed, given slice times taken around it."""
    return seconds * NOMINAL_S / trimmed_mean(slices)


class Sampler:
    """Times a slice every INTERVAL_S from a SIGALRM handler while it is
    entered, so that the host's speed is read while a call runs on this CPU.
    Python runs the handler between bytecodes, after any numpy operation in
    progress."""

    def __init__(self) -> None:
        self.slices: list[tuple[float, float]] = []  # (start, seconds)

    def take(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.slices.append((start, slice_s()))

    def __enter__(self) -> Sampler:
        signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, call) -> tuple[object, float, list[float]]:
        """Run ``call``; return its output, its time without the slices taken
        during it, and the slice times from just before it to just after it."""
        self.take()
        first = len(self.slices) - 1
        t0 = time.perf_counter()
        out = call()
        t1 = time.perf_counter()
        self.take()
        around = self.slices[first:]
        seconds = t1 - t0 - sum(d for s, d in around if t0 <= s < t1)
        return out, seconds, [d for _, d in around]
