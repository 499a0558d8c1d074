"""Timing corrected for CPU contention by an interleaved calibration slice.

On a shared host the CPU speed a process gets changes within seconds as its
neighbours come and go.  On a 2-vCPU Intel Xeon (2.1 GHz) KVM guest, the same
stdlib loop switched between two speeds about 1.6x apart every few seconds,
and one btcrs seed repeated in one process took from 1.8 s to 3.8 s of host
time.  CPU time (`time.process_time`) moved just as much, so the slowdown is
not steal time.

`Meter.measure` therefore runs a fixed pure-Python slice once before the
timed call, every INTERVAL_S during it (from a SIGALRM handler, so it lands
between bytecodes of the call) and once after it.  A slice slows down with
the call, so

    corrected seconds = (host seconds - slice seconds inside the call)
                        * NOMINAL_SLICE_S / mean slice seconds

is the call's cost in seconds at the slice's nominal speed.  Repeating one
gossip seed eight times gave host times from 1.92 s to 2.78 s but corrected
times within +-3% of their mean.  The slices run only inside `measure`,
never while the tracer is installed.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
SLICE_N = 4000
# one slice's duration on an uncontended 2.1 GHz Xeon under CPython 3.11; the
# scale of every corrected time, which cancels when two commits are compared
NOMINAL_SLICE_S = 0.0005


def _slice() -> int:
    d: dict[int, int] = {}
    s = 0
    for i in range(SLICE_N):
        d[i & 255] = i
        s += d.get((i * 7) & 255, 0)
    return s


class Meter:
    def __init__(self):
        self._starts: list[float] = []
        self._slices: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _slice()
        self._starts.append(t0)
        self._slices.append(time.perf_counter() - t0)

    def measure(self, fn, *args):
        """Call fn(*args); return (its result, host seconds, corrected seconds).

        Host seconds leave out the slices that ran inside the call.
        """
        first = len(self._slices)
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        inside = sum(d for s, d in zip(self._starts[first + 1:], self._slices[first + 1:])
                     if t0 <= s < t1)
        self._sample()
        host = t1 - t0 - inside
        return out, host, host * NOMINAL_SLICE_S / statistics.mean(self._slices[first:])
