"""Host-speed calibration kernels, independent of cvpulse.

The benchmark's host is shared: its speed moves in steps of up to 1.5-2x
that last from a fraction of a second to tens of seconds, and CPU time
moves with wall time, so no per-process clock avoids them.  Each workload
therefore brackets its operations with a fixed kernel built from the same
kind of work (numpy trig and RNG draws, text formatting and parsing, or
many small numpy calls) and scales each operation's wall time by the
kernel's reference time over its adjacent readings:

    op_s = wall * REFERENCE_S / mean(kernel before, kernel after)

which reads the operation's time at the host's quiet speed.  The kernels'
inputs are fixed, so a change to cvpulse moves the operations and leaves
the kernels alone.  The set-up probe is scaled the same way, with the numpy
import that the fresh interpreter makes before it imports cvpulse as its
kernel (``NUMPY_IMPORT_S``).
"""

from __future__ import annotations

import io
import math
import time

import numpy as np

_PHASES = np.random.default_rng(20040915).uniform(0.0, 2.0 * math.pi, 100_000)
_ROWS = np.column_stack(
    [np.arange(1500.0), np.random.default_rng(1).normal(size=(1500, 2))]
)
_COV = np.array(
    [[1.5, 0.0, 0.94, 0.0], [0.0, 1.5, 0.0, -0.94], [0.94, 0.0, 1.5, 0.0], [0.0, -0.94, 0.0, 1.5]]
)
_SMALL_PHASES = _PHASES[:4000]


def sampling() -> None:
    """Trig, square root, normal draws and block variances over 10^5 pulses."""
    rng = np.random.default_rng(12345)
    std = np.sqrt(1.0 + 0.5 * np.cos(2.0 * _PHASES + 0.3))
    values = std * rng.standard_normal(_PHASES.size)
    values.reshape(-1, 500).var(axis=1, ddof=1)


def text() -> None:
    """Format 1500 three-column rows as CSV text and parse them back."""
    buf = io.StringIO()
    np.savetxt(buf, _ROWS, fmt="%d,%.17g,%.17g")
    np.loadtxt(io.StringIO(buf.getvalue()), delimiter=",")


def small_calls() -> None:
    """Many numpy calls on 4x4 matrices and short arrays, as a parameter study makes."""
    rng = np.random.default_rng(7)
    for i in range(24):
        c, s = math.cos(0.1 * i), math.sin(0.1 * i)
        rot = np.array([[c, s, 0.0, 0.0], [-s, c, 0.0, 0.0], [0.0, 0.0, c, s], [0.0, 0.0, -s, c]])
        cov = rot @ _COV @ rot.T
        np.linalg.eigvalsh(cov)
        np.linalg.det(cov[:2, :2])
        x = np.sqrt(1.0 + 0.5 * np.cos(2.0 * _SMALL_PHASES + c))
        (x * rng.standard_normal(x.size)).reshape(-1, 500).var(axis=1, ddof=1)


# kernel -> (function, repetitions per reading, reference seconds per reading).
# The reference is about the lowest reading seen on the reference machine,
# that is, its reading on the quiet host; see README.md.
KERNELS = {
    "sampling": (sampling, 2, 0.0075),
    "text": (text, 2, 0.0089),
    "small_calls": (small_calls, 1, 0.0043),
}


# A fresh interpreter's ``import numpy`` on the reference machine's quiet
# host.  The set-up probe times its own numpy import, which it makes first,
# and scales its whole set-up time by this over that reading.
NUMPY_IMPORT_S = 0.10


class Calibration:
    """Readings of one kernel, taken between groups of operations."""

    def __init__(self, kernel: str) -> None:
        self.fn, self.reps, self.reference_s = KERNELS[kernel]
        self.fn()  # warm caches and lazy imports before the first reading

    def read(self) -> float:
        start = time.perf_counter()
        for _ in range(self.reps):
            self.fn()
        return time.perf_counter() - start

    def scale(self, before: float, after: float) -> float:
        """Factor that turns a wall time between two readings into quiet-host seconds."""
        return self.reference_s / (0.5 * (before + after))
