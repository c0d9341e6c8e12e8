"""How fast the host runs right now, from a fixed reference task.

On a shared host the speed of the same code drifts by 10-30% within a
few minutes, with other tenants' load. The benchmark times a fixed task
of its own right before and right after each CLI command of a round, and
before and after set-up. It multiplies the timed commands' wall time by
the task's nominal time over its median time around the round's
commands, and set-up time by the same ratio taken around set-up. That cancels much of the drift between
runs. The program under test never runs inside the reference task, so
nothing it does can change the scale.
"""

from __future__ import annotations

import time

import numpy as np

# Median time of one reference task on the 2-core host the benchmark
# was tuned on, when that host was quiet. Scaled times are reported in
# seconds of that host at that speed.
NOMINAL_S = 0.025
REPEATS = 5


class HostSpeed:
    def __init__(self):
        self._x = np.linspace(-1.0, 1.0, 64).reshape(4, 16)
        self._w = np.linspace(0.0, 0.1, 256).reshape(16, 16)
        self._buffer = np.ones(1 << 20)  # 8 MB, streamed past the caches
        self.probe()  # the first calls pay one-time costs

    def _task(self) -> float:
        # Interpreter work around small numpy calls, like the pipeline's
        # inner loops, plus a few passes over memory.
        acc = 0.0
        for i in range(8000):
            y = np.tanh(self._x @ self._w)
            acc += float(np.dot(y[0], y[1])) + i % 7
        for _ in range(8):
            acc += float(self._buffer.sum())
        return acc

    def probe(self) -> list[float]:
        """Seconds of a few runs of the reference task."""
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            self._task()
            times.append(time.perf_counter() - start)
        return times

    def timed(self, fn, *args):
        """Run fn(*args) between two probes; return (result, wall seconds, probe seconds)."""
        before = self.probe()
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        return result, elapsed, before + self.probe()


def scale(probes: list[float]) -> float:
    """Nominal over measured host speed, from the probes taken around some work."""
    return NOMINAL_S / float(np.median(probes))
