"""Machine-speed calibration for timings taken on a shared, noisy host.

On a host whose cores are shared with other tenants, the speed of pure Python
code swings by up to 1.7x for tens of seconds or minutes at a time, far more
than any change a benchmark run has to resolve.  `reference_routine` is a
fixed piece of pure Python of the same character as the library's hot paths
(bitmask iteration, small objects, tuples and sets) that shares no code
with the package.  Timings are scaled by REFERENCE_S / (calibration time),
i.e. reported in *reference seconds*: the time on a machine where the
routine takes REFERENCE_S.  A change to the package moves scaled times
exactly as it moves raw ones; raw times are kept in the run record.

While a workload is measured, a `Sampler` runs the routine every 0.25 s
from a timer signal, also in the middle of a long check call.  Each
operation's time, less the samples' own time, is scaled by the mean of the
samples taken during it and within 1 s of it.  Set-up is scaled by
bursts taken just before and after it.  Measured on a shared 2-core x86_64
host: the spread
of ten `check_theorem4(5)` calls fell from 16% raw to 6% scaled; the
run-to-run spread of `query` `ops_per_s` from about 20% to about 5%, and
that of `setup_s` from 15% to 5%.
"""

from __future__ import annotations

import signal
import statistics
import time

# 10th percentile of the routine's time on a shared 2-core x86_64 host with
# CPython 3.11, i.e. that host when its cores are not contended.
REFERENCE_S = 0.0090


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _low_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reference_routine() -> int:
    total = 0
    seen = set()
    for i in range(3000):
        mask = (i * 2654435761) & 0xFFFFF
        positions = list(_low_bits(mask))
        pair = _Pair(tuple(positions), len(positions))
        seen.add(pair.a[:3])
        total += sum(b for b in positions if b & 1) + pair.b
    return total + len(seen)


def calibrate() -> float:
    """Seconds taken by one run of the reference routine."""
    start = time.perf_counter()
    reference_routine()
    return time.perf_counter() - start


def burst(k: int) -> list[float]:
    return [calibrate() for _ in range(k)]


class Sampler:
    """Runs the reference routine every `interval_s` from a SIGALRM handler.

    The handler runs in the main thread between bytecodes, so a sample lies
    wholly inside or wholly outside any interval the main thread times.
    `scaled` removes the samples' own time from an interval and scales the
    rest by the calibration around it.
    """

    def __init__(self, interval_s: float = 0.25, window_s: float = 1.0):
        self.interval_s = interval_s
        self.window_s = window_s
        self.samples: list[tuple[float, float, float]] = []  # (end, routine_s, cost_s)

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        routine_s = calibrate()
        end = time.perf_counter()
        self.samples.append((end, routine_s, end - start))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds for the interval [start, end] timed while active."""
        inside = sum(cost for t, _, cost in self.samples if start <= t - cost and t <= end)
        near = [r for t, r, _ in self.samples
                if start - self.window_s <= t <= end + self.window_s]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - end))[1]]
        return (end - start - inside) * REFERENCE_S / statistics.fmean(near)
