"""Timed calls, in raw seconds and in reference seconds.

The shared 2-vCPU machines this benchmark was built on change speed by up to
3x within minutes: over six minutes a fixed piece of solver work took 0.16 s
to 0.48 s, and the medians of its times over 20 s windows spread by 23%
(quartile distance over median), over 120 s windows still by 21%.  No run
short enough for the benchmark averages that out.  So while a pass runs, the clock times a fixed
calibration kernel every `TICK_S` seconds, from a timer signal, so also in
the middle of a long call.  Each call is reported in raw seconds, without
the kernel runs inside it, and in reference seconds: raw seconds x
`REFERENCE_KERNEL_S` / the kernel time measured during and around it.  A
reference second is a second at the speed at which the kernel takes
`REFERENCE_KERNEL_S`.

The kernel uses no workbench code, so a change to the workbench moves
reference seconds as it moves raw seconds.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

TICK_S = 0.5
KERNEL_RUNS = 3
# About the kernel's time on the machine the benchmark was defined on (2 vCPUs,
# Python 3.11.7) at its faster speed; it fixes the unit, not the spread.
REFERENCE_KERNEL_S = 0.0050


def calibration_kernel() -> int:
    """Fixed pure-Python work shaped like the workbench's own: permutation
    tuples counted in a dict, and GF(2) row reduction on int bit rows."""
    rng = random.Random(12345)
    perms = [tuple(rng.sample(range(12), 12)) for _ in range(80)]
    counts = {}
    for p in perms:
        for q in perms[:40]:
            r = tuple(q[i] for i in p)
            counts[r] = counts.get(r, 0) + 1
    pivots = {}
    for _ in range(128):
        v = rng.getrandbits(128)
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(counts) + len(pivots)


class Clock:
    """Times calls and samples the kernel around and inside them."""

    def __init__(self):
        self.samples = []    # (start, end, kernel seconds)
        self.segments = []   # (start, end) of each timed call

    def sample(self, *_signal_args):
        # with the collector on, the kernel would also time collections of
        # whatever the workload has left alive
        enabled = gc.isenabled()
        gc.disable()
        try:
            if not self.samples:  # the first runs of the kernel are slower
                for _ in range(KERNEL_RUNS):
                    calibration_kernel()
            start = perf_counter()
            runs = []
            for _ in range(KERNEL_RUNS):
                t = perf_counter()
                calibration_kernel()
                runs.append(perf_counter() - t)
        finally:
            if enabled:
                gc.enable()
        self.samples.append((start, perf_counter(), statistics.median(runs)))

    @contextmanager
    def ticking(self, every: float | None = TICK_S):
        """Sample the kernel on entry, every `every` seconds inside (never
        if it is None), and on exit."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        if every is not None:
            signal.setitimer(signal.ITIMER_REAL, every, every)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def call(self, fn):
        """Run `fn()` as one timed segment."""
        start = perf_counter()
        try:
            return fn()
        finally:
            self.segments.append((start, perf_counter()))

    def raw(self, start: float, end: float) -> float:
        """Seconds in [start, end] outside the kernel samples."""
        return (end - start) - sum(max(0.0, min(e, end) - max(s, start))
                                   for s, e, _k in self.samples)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per raw second over [start, end], from the median
        of the kernel samples inside it and the nearest one on each side."""
        inside = [k for s, e, k in self.samples if start <= (s + e) / 2 <= end]
        before = [k for s, e, k in self.samples if e <= start][-1:]
        after = [k for s, e, k in self.samples if s >= end][:1]
        return REFERENCE_KERNEL_S / statistics.median(before + inside + after)

    def totals(self, first: int = 0) -> tuple:
        """(raw, reference) seconds of the segments from index `first` on."""
        raw = ref = 0.0
        for start, end in self.segments[first:]:
            seconds = self.raw(start, end)
            raw += seconds
            ref += seconds * self.scale(start, end)
        return raw, ref

    def kernel_median(self) -> float:
        return statistics.median(k for _s, _e, k in self.samples)
