"""Host speed calibration.

The benchmark's host is shared: at a fixed workload its speed wanders by
about +-25% over seconds to minutes, in CPU time as much as in wall time,
far more than the changes the benchmark must resolve.  So while a command
runs, a timer signal interrupts it every ``SAMPLE_INTERVAL_S`` to time one
run of a fixed pure-Python kernel (dict and integer work, like the ring
arithmetic).  Each stretch of the command between two samples, with the
samples themselves left out, is then scaled to the speed at which the
kernel takes ``REFERENCE_S``: about the kernel's median on an idle moment
of the host where the benchmark was defined (2-core Intel Xeon, Python
3.11).  Raw times are recorded beside the scaled ones.

This module imports only the standard library's ``signal`` and ``time``,
so an import-time probe can use it without preloading what ``gassner``
imports.
"""

import signal
from time import perf_counter

REFERENCE_S = 0.0004
SAMPLE_INTERVAL_S = 0.025
LOCAL_WINDOW = 2


def kernel() -> int:
    a = {(i, i % 7): i for i in range(40)}
    b = {(i % 5, i): i + 1 for i in range(40)}
    out = {}
    for (a0, a1), ca in a.items():
        for (b0, b1), cb in b.items():
            key = (a0 + b0, a1 + b1)
            new = out.get(key, 0) + ca * cb
            if new:
                out[key] = new
    return len(out)


def sample() -> tuple[float, float]:
    """Time one kernel run; return (start, end)."""
    t0 = perf_counter()
    kernel()
    return t0, perf_counter()


class Sampler:
    """Samples host speed before, during and after the ``with`` block."""

    def __init__(self, bracket: int = 3):
        self.bracket = bracket
        self.spans: list[tuple[float, float]] = []

    def _on_alarm(self, signum, frame):
        self.spans.append(sample())

    def __enter__(self):
        self.spans = [sample() for _ in range(self.bracket)]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.spans += [sample() for _ in range(self.bracket)]
        times = [end - start for start, end in self.spans]
        # One kernel run is noisy, so the local speed at a sample is the
        # median over it and its LOCAL_WINDOW neighbours on each side.
        local = [
            _median(times[max(0, k - LOCAL_WINDOW) : k + LOCAL_WINDOW + 1])
            for k in range(len(times))
        ]
        # Between two samples, time converts at the mean of their factors.
        self.pieces = [
            (
                self.spans[k][1],
                self.spans[k + 1][0],
                (REFERENCE_S / local[k] + REFERENCE_S / local[k + 1]) / 2,
            )
            for k in range(len(self.spans) - 1)
        ]
        self.factor = REFERENCE_S / _median(times)

    def scaled(self, start: float, end: float) -> float:
        """Reference-speed duration of [start, end], samples excluded."""
        return sum(
            (min(end, e) - max(start, s)) * f
            for s, e, f in self.pieces
            if s < end and e > start
        )


def _median(values: list[float]) -> float:
    return sorted(values)[len(values) // 2]
