"""Local machine speed, sampled between requests.

On a shared host the CPU speed one process gets swings widely: on the
2-core Xeon VM this benchmark was written on, the same grid command took
0.17 s and 0.45 s within one minute, and whole 15-second windows ran 1.5x
slower than their neighbours.  Wall time alone cannot separate that from a
change in the program.

So the runner samples a fixed reference kernel every PERIOD_S seconds of a
run, between requests, and scales each request's measured time by
NOMINAL_S / (kernel time next to it).  A scaled time reads as the time the
request would take on a machine where the kernel takes NOMINAL_S.  The kernel
eliminates a small system on numpy rows, the package's own hot path, but
never calls the package, so a change to the program cannot move
it.  Measured times are reported next to the scaled ones.
"""

from __future__ import annotations

import math
import time

import numpy as np

NOMINAL_S = 6e-4  # typical kernel time on the 2-core Xeon VM; the scale of reported times
PERIOD_S = 0.1
REPEATS = 4  # a sample is the mean of this many kernel runs


# A fixed 4 x 4 system, eliminated the way small dense solves are: row
# pivoting and rank-1 updates on numpy rows.
_MATRIX = np.array(
    [[1.0, 1.0, 1.0, 1.0], [0.3, -0.7, 0.2, 0.9], [0.1, 0.4, -0.8, 0.5], [1.2, -0.9, 1.1, -1.3]]
)


def kernel() -> float:
    x = 0.0
    for _ in range(8):
        a = _MATRIX.copy()
        b = np.array([1.0, 0.0, 0.0, 0.0])
        for k in range(4):
            p = k + int(np.argmax(np.abs(a[k:, k])))
            if p != k:
                a[[k, p]] = a[[p, k]]
                b[[k, p]] = b[[p, k]]
            if k < 3:
                m = a[k + 1 :, k] / a[k, k]
                a[k + 1 :, k + 1 :] -= np.outer(m, a[k, k + 1 :])
                b[k + 1 :] -= m * b[k]
        x += float(b[3] / a[3, 3])
    return x


class SpeedProbe:
    """Kernel samples, and the scaling of timed work between them.

    ``track(outcome)`` registers work that just finished; the next sample
    gives it ``outcome.scaled``, its elapsed time scaled by the mean of the
    samples taken before and after it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._last_at = -math.inf
        self._pending: list = []

    def sample(self):
        t0 = time.perf_counter()
        for _ in range(REPEATS):
            kernel()
        now = (time.perf_counter() - t0) / REPEATS
        local = [now] if not self.samples else [self.samples[-1], now]
        for outcome in self._pending:
            outcome.scaled = outcome.elapsed * NOMINAL_S * len(local) / sum(local)
        self._pending.clear()
        self.samples.append(now)
        self._last_at = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self._last_at >= PERIOD_S

    def track(self, outcome):
        self._pending.append(outcome)
