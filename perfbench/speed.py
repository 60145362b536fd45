"""Machine-speed reference: wall time scaled to a nominal machine speed.

On a shared host the same work can take twice as long from one second to the
next, in regimes that last from a second to minutes, so neither medians nor
minima of a 30-second run repeat. A fixed pure-Python reference loop,
independent of fedchain, slows down by nearly the same factor at the same
moment. Timing that loop every ``PERIOD_S`` during a measured window, and
scaling each interval by ``NOMINAL_S / loop duration``, gives the time the
window would have taken at the speed where the loop runs in ``NOMINAL_S``.
A change to the program moves these times exactly as it moves wall time at
that speed; the reference loop does not change with the program.
"""
from __future__ import annotations

import signal
import statistics
import time

NOMINAL_S = 0.001
REFERENCE_ITERATIONS = 5000  # about NOMINAL_S on an uncontended 2 GHz core
PERIOD_S = 0.05


def reference_loop() -> None:
    acc, table = 0, {}
    for i in range(REFERENCE_ITERATIONS):
        acc += (i * 2654435761) % 1000003
        table[i & 255] = (acc, i)


def reference_s(repeats: int = 5) -> float:
    """Median duration of the reference loop, now."""
    durations = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_loop()
        durations.append(time.perf_counter() - start)
    return statistics.median(durations)


class Speedometer:
    """Times the reference loop every PERIOD_S of wall time from SIGALRM.

    The handler runs between bytecodes of the measured code; its own time is
    subtracted from every window it falls in, and ``on_tick`` lets a tracer
    take it out of the spans that were open.
    """

    def __init__(self, on_tick=None) -> None:
        self.samples: list[tuple[float, float]] = []  # (loop start, loop duration)
        self._on_tick = on_tick  # called with each loop duration
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_loop()
        duration = time.perf_counter() - start
        self.samples.append((start, duration))
        if self._on_tick is not None:
            self._on_tick(duration)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> tuple[float, float]:
        """Loop time spent inside [start, end), and the window's speed factor."""
        spent = sum(d for t, d in self.samples if start <= t < end)
        near = [d for t, d in self.samples if start - PERIOD_S <= t < end + PERIOD_S]
        if not near:
            near = [reference_s()]
        return spent, statistics.fmean(NOMINAL_S / d for d in near)

    def normalized(self, start: float, end: float) -> float:
        """Window [start, end) in seconds at nominal speed, minus loop time."""
        spent, factor = self.scale(start, end)
        return (end - start - spent) * factor
