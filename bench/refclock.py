"""Seconds at a reference speed, so that runs on a shared machine compare.

On a machine shared with other tenants the interpreter's speed drifts by
half or more within minutes, and raw times of a pass drift with it.  The
clock times a fixed pure-Python kernel (bit operations, small containers and
big integers, as in the forcing, isomorphism and char-poly code) on a timer
signal every ``EVERY_S`` seconds, also in the middle of a long call, and
scales each timed interval by ``REF_SECONDS`` over the kernel's time inside
and around it.  The kernel's own time is taken out of every interval.  On a
machine where the kernel takes ``REF_SECONDS``, scaled and raw seconds
agree.  A change to zfforge cannot change the kernel's time, so scaling takes
out the machine's drift and keeps the program's.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_SECONDS = 0.003  # nominal time of one kernel run
EVERY_S = 0.5  # time between samples
_ROWS = tuple(((0x9E3779B1 * (i + 1)) >> 7) & 0xFFFF & ~(1 << i) for i in range(16))


def _kernel() -> int:
    acc = 0
    full = 0xFFFF
    seen = {}
    for blue in range(1, 1700):
        white = full & ~blue
        b = blue
        row = []
        while b:
            low = b & -b
            b ^= low
            wn = _ROWS[low.bit_length() - 1] & white
            if wn and not wn & (wn - 1):
                row.append(wn)
        seen[tuple(row)] = seen.get(tuple(row), 0) + 1
        acc = (acc * 0x5DEECE66D + len(row)) % (1 << 200)
    return acc + len(seen)


class RefClock:
    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, end, kernel seconds)

    def sample(self) -> None:
        """Time the kernel three times and keep the median, robust to one interrupt."""
        start = time.perf_counter()
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            _kernel()
            runs.append(time.perf_counter() - t0)
        self.samples.append((start, time.perf_counter(), statistics.median(runs)))

    def start(self) -> None:
        """Sample on a timer from now on; Python runs the handler between bytecodes."""
        signal.signal(signal.SIGALRM, lambda _signum, _frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()

    def paused(self, start: float, end: float) -> float:
        """Sampling time inside [start, end]."""
        return sum(b - a for a, b, _k in self.samples if start <= a < end)

    def kernel_s(self) -> float:
        return statistics.median(k for _a, _b, k in self.samples)

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds in [start, end], less the sampling done inside it.

        The kernel time used is the mean over the samples inside the interval
        and the nearest sample on each side of it.
        """
        before = [k for a, _b, k in self.samples if a < start][-1:]
        inside = [k for a, _b, k in self.samples if start <= a < end]
        after = [k for a, _b, k in self.samples if a >= end][:1]
        kernel = statistics.mean(before + inside + after)
        return (end - start - self.paused(start, end)) * REF_SECONDS / kernel
