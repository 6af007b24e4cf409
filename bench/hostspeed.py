"""Samples of the speed the host gives this process while a pass runs.

The 2-vCPU host this benchmark was written on changes the speed it gives
one process by 20-30% over seconds to minutes, enough to hide a real
regression or fake a gain.  While a pass runs, a timer signal every TICK_S
times a fixed pure-Python kernel.  Each unit's time is then restated at
the reference speed (the kernel taking CAL_REFERENCE_S) using the kernel
times sampled during the unit and just around it.  The time the samples
themselves take is subtracted from every timing they fall into.
"""

from __future__ import annotations

import signal
from time import perf_counter

CAL_ITEMS = 300
# One sample's kernel time at the reference speed, about the typical speed
# of the host the benchmark was written on (2-vCPU Intel Xeon, Python 3.11.7).
CAL_REFERENCE_S = 0.25e-3
TICK_S = 0.1
WINDOW_S = 0.15


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def at(self, x):
        return self.a * x + self.b


def _kernel() -> float:
    # Small objects, method calls, float arithmetic, dict and list work:
    # the mix the library's interpreter-bound code is made of.  A plain
    # integer loop tracked the host's slow spells less well.
    acc = 0.0
    counts: dict[int, int] = {}
    out = []
    for i in range(CAL_ITEMS):
        item = _Item(i * 0.5, 1.0)
        acc += item.at(2.0)
        counts[i & 15] = counts.get(i & 15, 0) + 1
        out.append((i, acc))
    return acc


def loop_seconds() -> float:
    """Median of three timings of the fixed kernel."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return sorted(times)[1]


class HostSpeed:
    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # start, spent, loop

    def _sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        loop = loop_seconds()
        self.samples.append((t0, perf_counter() - t0, loop))

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def spent(self, start: float = float("-inf"),
              end: float = float("inf")) -> float:
        """Seconds the samples took within [start, end]."""
        return sum(s for t, s, _ in self.samples if start <= t < end)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per measured second over [start, end]."""
        near = [c for t, _, c in self.samples
                if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda x: abs(x[0] - start))[2]]
        return CAL_REFERENCE_S * len(near) / sum(near)

    def median_loop_s(self) -> float:
        loops = sorted(c for _, _, c in self.samples)
        return loops[len(loops) // 2]
