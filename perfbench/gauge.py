"""Reference kernels that gauge the host's speed while a run measures.

On a shared host the core's speed changes by up to half, for stretches
of a second to a minute, as other tenants come and go.  A run that only
reads the program's own times reads whichever state it met.  The gauge
runs a small kernel of its own every ``EVERY_S`` seconds, at a unit
boundary, and records how long it took; the runner multiplies the
program's times by the kernel's reference time over its local time, so
a ``norm_*`` time is the time the work would have taken at the speed at
which the kernel takes its reference time.  The kernels are the
benchmark's own code and never call the package, so a change to the
package moves the program's times and leaves the kernel's alone.

Host contention slows code of different kinds by different amounts, so
each workload has a kernel shaped like its own hot loop: numpy on a
training batch, per-case generators and five-value clearing, or
pairwise differences of small image piles.
"""

from __future__ import annotations

from array import array
from time import perf_counter

import numpy as np

EVERY_S = 0.025
NEAREST = 9  # kernel timings in each local median

_ROWS = np.linspace(0.05, 0.95, 200).reshape(40, 5)
_WEIGHTS = np.linspace(-1.0, 1.0, 15).reshape(5, 3)
_BATCH = np.linspace(0.0, 1.0, 768 * 5).reshape(768, 5)
_PILES = np.linspace(0.0, 1.0, 2 * 3 * 16 * 16).reshape(2, 3, 16, 16)


def batch_kernel() -> float:
    """Training's mix: a short Python loop over rows and numpy on a 768 x 5 batch."""
    acc = 0.0
    state = {"best": -1.0, "index": -1}
    for index, row in enumerate(_ROWS):
        z = row @ _WEIGHTS
        top = int(np.argmax(z))
        acc += float(z[top]) + sum(x * x for x in row.tolist())
        if acc > state["best"]:
            state = {"best": acc, "index": index}
    hidden = np.maximum(_BATCH @ _WEIGHTS - 0.5, 0.0)
    return acc + float(hidden.sum(axis=1).max()) + state["index"]


def clearing_kernel() -> float:
    """Clearing's mix: a seeded generator per case and numpy calls on five values."""
    acc = 0.0
    for case in range(6):
        bids = np.random.default_rng([case, 7]).uniform(0.0, 1.0, 5)
        z = np.maximum(bids[:, None] * _WEIGHTS[0] + _WEIGHTS[1], 0.0).max(axis=1)
        winner = int(np.argmax(z))
        acc += float(np.partition(bids, -2)[-2]) + winner + float(np.all(np.isfinite(bids)))
    return acc


def pile_kernel() -> float:
    """The episode's mix: pairwise image differences of two piles of 3 x 16 x 16."""
    acc = 0.0
    for _ in range(12):
        diffs = _PILES[0][:, None] - _PILES[1][None, :]
        acc += float(np.mean(diffs ** 2, axis=(2, 3)).mean()) * float(np.hypot(3.0, 4.0))
    return acc


# name -> (kernel, reference time in ms).  The reference time is a fixed
# scale, about each kernel's time on a quiet core of a 2-vCPU Xeon; changing
# it or a kernel rescales every norm_* value, so both stay fixed between
# the commits that a comparison pairs.
KERNELS = {"batch": (batch_kernel, 0.20), "clearing": (clearing_kernel, 0.20),
           "pile": (pile_kernel, 0.20)}


class Gauge:
    """Runs one kernel at most once per ``EVERY_S`` and keeps its timings."""

    def __init__(self, kernel, ref_ms: float):
        self.kernel = kernel
        self.ref_s = ref_ms * 1e-3
        self.times = array("d")
        self.durations = array("d")
        self._next = 0.0

    def tick(self, now: float) -> float:
        """Run the kernel if it is due; return the seconds it took (0 if not run)."""
        if now < self._next:
            return 0.0
        t0 = perf_counter()
        self.kernel()
        t1 = perf_counter()
        self.times.append(t0)
        self.durations.append(t1 - t0)
        self._next = t1 + EVERY_S
        return t1 - t0

    def local(self, when) -> np.ndarray:
        """Median of the ``NEAREST`` kernel timings around each time in ``when``, in seconds."""
        times = np.frombuffer(self.times, dtype=float)
        durations = np.frombuffer(self.durations, dtype=float)
        if durations.size == 0:
            raise ValueError("the gauge never ran")
        half = NEAREST // 2
        padded = np.pad(durations, half, mode="edge")
        rolling = np.median(np.lib.stride_tricks.sliding_window_view(padded, NEAREST), axis=1)
        index = np.clip(np.searchsorted(times, when, side="right") - 1, 0, times.size - 1)
        return rolling[index]

    def between(self, lo: float, hi: float) -> np.ndarray:
        """Kernel timings that started in ``[lo, hi]``, in seconds."""
        times = np.frombuffer(self.times, dtype=float)
        durations = np.frombuffer(self.durations, dtype=float)
        return durations[(times >= lo) & (times <= hi)]
