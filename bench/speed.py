"""Timing at reference speed: host speed drift taken out of every timed call.

On a shared host the speed of one process switches between a fast and a slow
state, about 1.6x apart, in spells of tens of milliseconds to two seconds
(process CPU time tracks wall time, so it is slower execution, not waiting).
A run's raw wall times therefore depend on how many slow spells it caught,
and the same code spread by 20-40 % between runs.

measure() times a call at reference speed instead.  It runs a small fixed
pure-Python kernel three times before the call, every INTERVAL_S during it
(from a SIGALRM handler whose time is taken out of the call's time) and three
times after it, and reports

    ref_s = wall_s * REF_S / mean(kernel times)

where kernel times above OUTLIER times their median are left out (a kernel
run that the scheduler preempted, not a slow state), and REF_S is the
kernel's time on the reference machine (2-vCPU Xeon at 2.1 GHz, Python 3.11)
in its fast state.  The timer samples uniformly in
time, so the mean kernel time scales like the mean slowdown over the call.
The kernel imports nothing from pik, allocates little, and runs with the
cyclic garbage collector off, so neither pik's code nor its heap changes its
time: a change to pik moves wall_s and not the speed.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import Callable, TypeVar

T = TypeVar("T")

REF_S = 1.4e-4
INTERVAL_S = 0.02
AROUND = 3
WARMUP = 50
OUTLIER = 3.0
_WORD = tuple(((i * 7919) % 13) - 6 for i in range(2400))


def kernel() -> int:
    """Free reduction of a fixed word, then a count of its 3-letter windows."""
    stack: list[int] = []
    for a in _WORD:
        if a and stack and stack[-1] == -a:
            stack.pop()
        else:
            stack.append(a)
    t = tuple(stack)
    counts: dict[tuple[int, ...], int] = {}
    for k in range(0, len(t) - 3, 3):
        key = t[k:k + 3]
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def sample() -> float:
    """Seconds of one kernel run, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Times calls at reference speed; see the module docstring."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._handler_s = 0.0
        for _ in range(WARMUP):  # the interpreter specializes the kernel's code
            sample()

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._samples.append(sample())
        self._handler_s += time.perf_counter() - t0

    def measure(self, fn: Callable[[], T]) -> tuple[T, float, float]:
        """Call fn once; return its result, wall seconds and reference seconds."""
        before = [sample() for _ in range(AROUND)]
        self._samples, self._handler_s = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall -= self._handler_s
        samples = before + self._samples + [sample() for _ in range(AROUND)]
        cut = OUTLIER * statistics.median(samples)
        kept = [t for t in samples if t <= cut]
        return out, wall, wall * REF_S * len(kept) / sum(kept)
