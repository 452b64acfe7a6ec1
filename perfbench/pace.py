"""Host pace: wall time scaled to a nominal speed of the machine.

On a shared host the speed of a virtual CPU swings by up to 1.8x within
seconds, with the load of other tenants, and neither the process's CPU
time nor steal time shows it.  A fit of 10 s or more averages over those
swings differently on every run.  ``PaceClock`` measures them where they
happen: a timer signal runs a fixed sub-millisecond reference kernel
every ``INTERVAL_S`` of the benchmark process, and every stretch of
program time between two samples is scaled by ``REF_NOMINAL_S`` over the
mean duration of the kernel at its two ends.  The sum is the time the
program would have taken at the nominal pace.  The kernel mixes what the
model does (a gather of embedding rows, a small matmul, ``tanh``,
``bincount`` and an interpreted loop), so it slows down with the same
contention.  The time spent in the kernel is left out of both figures.

The kernel's duration must follow the host, not the program.  So it
writes into its own buffers (temporaries of its size come from the heap
or from fresh mmap pages, depending on what the program freed before),
and each sample puts the caches into the same state before timing it:
one untimed run brings the kernel's table in, and a read of a buffer
twice the size of L2 moves the table out to the shared L3, whatever the
program evicted.  The timed run then reads its rows from L3, which is
where the load of other tenants shows.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.05
# the timed kernel's median duration in a tight loop on an idle vCPU of a 2-core
# Intel Xeon host (2 GHz, 2 MiB L2 per core)
REF_NOMINAL_S = 3.4e-4
SWEEP_BYTES = 4 << 20


class _Kernel:
    """The reference kernel and its data, which take about 8 MiB."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = rng.standard_normal((60_000, 16)).astype(np.float32)
        self.weights = rng.standard_normal((16, 16)).astype(np.float32)
        self.rows = rng.integers(0, len(self.table), size=4096)
        self.bins = self.rows[:1024] % 997
        self.gathered = np.empty((len(self.rows), 16), dtype=np.float32)
        self.projected = np.empty_like(self.gathered)
        self.sweep = np.ones(SWEEP_BYTES // 4, dtype=np.float32)

    def __call__(self):
        np.take(self.table, self.rows, axis=0, out=self.gathered)
        np.matmul(self.gathered, self.weights, out=self.projected)
        np.tanh(self.projected, out=self.projected)
        np.bincount(self.bins, minlength=997)
        total = 0
        for i in range(2000):
            total += i
        return float(self.projected[0, 0]) + total

    def sample(self):
        """Seconds of one kernel run from the same cache state."""
        self()
        self.sweep.sum()
        start = perf_counter()
        self()
        return perf_counter() - start


class PaceClock:
    """Samples the reference kernel on a timer while the clock is running.

    The kernel's data is allocated when the clock starts, so a process
    that never starts one does not hold it.
    """

    def __init__(self):
        # (start, end, timed kernel seconds) of each sample
        self.samples: list[tuple[float, float, float]] = []
        self._kernel = None
        self._busy = False
        self._previous = None

    def _sample(self, signum=None, frame=None):
        if self._busy:  # a signal that arrives during a sample is dropped
            return
        self._busy = True
        start = perf_counter()
        kernel_s = self._kernel.sample()
        self.samples.append((start, perf_counter(), kernel_s))
        self._busy = False

    def __enter__(self):
        self._kernel = _Kernel()
        self._kernel.sample()  # warm the kernel's code before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._kernel = None

    def timed(self, fn):
        """``fn()`` with a sample at each end.

        Returns (result, wall seconds, seconds at the nominal pace); both
        times leave out the samples taken during the call.
        """
        self._sample()
        first = len(self.samples) - 1
        start = perf_counter()
        result = fn()
        end = perf_counter()
        self._sample()
        marks = self.samples[first:]
        wall = nominal = 0.0
        for (_, a_end, a_kernel), (b_start, _, b_kernel) in zip(marks, marks[1:]):
            stretch = min(b_start, end) - max(a_end, start)
            if stretch > 0:
                wall += stretch
                nominal += stretch * REF_NOMINAL_S / (0.5 * (a_kernel + b_kernel))
        return result, wall, nominal


def wall_timed(fn):
    """``fn()`` timed without a pace clock: (result, wall seconds, wall seconds)."""
    start = perf_counter()
    result = fn()
    elapsed = perf_counter() - start
    return result, elapsed, elapsed
