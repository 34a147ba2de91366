"""Calibration of the benchmark's timings against the machine's speed.

The CPUs of a shared machine slow down, by up to half and for seconds to
minutes at a time, when its other tenants are busy; the benchmark process
loses no CPU time, its instructions just take longer.  So a run times a
fixed piece of work in maggeo's style (a Python loop of scalar arithmetic
and small numpy calls) every ``EVERY_S`` seconds *during* each operation,
from a timer signal, and divides the operation's time by the median piece
time seen while it ran.  Multiplied by ``REF_S``, the piece's time on the
baseline machine when it is not slowed down, the quotient reads as the
operation's time on that machine.  The pieces are left out of the
operation's time.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

EVERY_S = 0.025
REF_S = 0.0014


def piece(matrix):
    """Seconds taken by the fixed piece of work (1.3-2 ms)."""
    import numpy as np

    t0 = time.perf_counter()
    x, acc = np.ones(3), 0.0
    for i in range(30):
        x = np.linalg.solve(matrix, x) + 0.1 * np.sin(x)
        for j in range(400):
            acc += (i * j) % 7 * 0.5
    return time.perf_counter() - t0


class Calibration:
    def __init__(self):
        import numpy as np

        self.matrix = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])

    @contextlib.contextmanager
    def running(self):
        """Time a piece every EVERY_S seconds inside the block; yields the
        list the piece times are appended to."""
        pieces = []
        busy = False

        def tick(signum, frame):
            nonlocal busy
            if not busy:  # a tick that arrives during a piece is dropped
                busy = True
                pieces.append(piece(self.matrix))
                busy = False

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield pieces
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def sample(self, seconds):
        """Piece times from pieces run back to back for ``seconds``."""
        pieces = []
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pieces.append(piece(self.matrix))
        return pieces


def reference_seconds(seconds, pieces):
    """``seconds`` measured while the pieces took ``pieces``, as seconds on
    the baseline machine."""
    return seconds / statistics.median(pieces) * REF_S
