"""Host speed, measured by a fixed kernel that runs between work steps.

The CPU speed of a shared VM changes by 15% or more within seconds, and CPU
time changes with wall time, so a wall time alone cannot tell a faster
program from a faster host.  The benchmark therefore runs a fixed kernel of
small dense eigendecompositions (the kind of call the solvers make most)
between work steps, and reports every time scaled to the speed at which
the kernel takes :data:`REFERENCE_S`:

    scaled time = wall time * REFERENCE_S / mean kernel time

The kernel is short and runs once for every :data:`EVERY_S` of work, so
its mean weighs the host's slow and fast stretches as the work's time
does.  The kernel is the benchmark's own code; a change to netmimo does
not change it, so a faster program still reads faster by the same factor.

A workload that runs items in a pool of worker processes keeps more than
one vCPU busy, and on a VM whose vCPUs share a core that is slower per
process than running alone.  Its meter runs the kernel in as many processes
at once as the pool has workers, and times the kernel of this process.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

# Mean kernel time on the reference VM (2-vCPU Xeon at 2.0 GHz, OpenBLAS,
# one BLAS thread, one process).
REFERENCE_S = 0.020
# One kernel sample per this much wall time of work.
EVERY_S = 0.25
# The kernel: ROUNDS passes over MATRICES fixed 8x8 Hermitian matrices.
MATRICES = 50
ROUNDS = 10


def _matrices() -> list:
    rng = np.random.default_rng(0)
    out = []
    for _ in range(MATRICES):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        out.append(a + a.conj().T)
    return out


class SpeedMeter:
    """Kernel samples taken between work steps, and the scale they give."""

    def __init__(self, processes: int = 1):
        self.processes = processes
        self._mats = _matrices()
        self._kernel()  # warm-up, not kept
        self.samples: list = []
        self.spent = 0.0          # wall time spent in kept samples
        self._last = time.perf_counter()

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        for _ in range(ROUNDS):
            for m in self._mats:
                w, v = np.linalg.eigh(m)
                (v * w) @ v.conj().T
        return time.perf_counter() - t0

    def sample(self, count: int = 1) -> None:
        """Run the kernel ``count`` times in this process, while each of
        ``processes - 1`` forked children runs it as often."""
        t0 = time.perf_counter()
        children = []
        try:
            for _ in range(self.processes - 1):
                pid = os.fork()
                if pid == 0:
                    try:
                        for _ in range(count):
                            self._kernel()
                    finally:
                        os._exit(0)
                children.append(pid)
            self.samples.extend(self._kernel() for _ in range(count))
        finally:
            for pid in children:
                os.waitpid(pid, 0)
        self._last = time.perf_counter()
        self.spent += self._last - t0

    def tick(self) -> None:
        """Take one sample for every :data:`EVERY_S` of work since the last."""
        due = int((time.perf_counter() - self._last) / EVERY_S)
        if due:
            self.sample(due)

    def scale(self) -> float:
        """Factor that turns a wall time measured among these samples into
        the time it would take on the reference host."""
        return REFERENCE_S / statistics.fmean(self.samples)
