"""Host-speed reference for the benchmark's time metrics.

On a shared host the speed of a core drifts: other tenants made the same
pass take anywhere from 1.0 to 1.9 s, in spells that last minutes, longer
than a run.  No median inside a run removes that.  A fixed kernel of the
benchmark's own, timed just before and just after each measured interval,
slows down with the host, while it does not change with the program.  Each time metric
is therefore the measured seconds scaled by REFERENCE_S over the kernel's
seconds around the interval: the time the interval would have taken on a
host where the kernel takes REFERENCE_S.  The raw seconds are kept in the
result record.
"""

from __future__ import annotations

import functools
import statistics
import time

# About the kernel's seconds on the host of the recorded baseline
# (perfbench/README.md) in a fast spell.  Fixed, so that normalized times of
# different commits compare.
REFERENCE_S = 0.0125
REPEATS = 3


@functools.cache
def _inputs():
    # numpy is imported on first use, after run.py has pinned BLAS threads.
    import numpy as np

    rng = np.random.default_rng(0)
    return (np, rng.standard_normal(1 << 14), rng.standard_normal((128, 128)),
            np.cumsum(rng.integers(0, 2, 1 << 20)))


def kernel() -> None:
    """One share each of the kinds of work the workloads do: the
    interpreter loop, small FFT / exp / matrix products, and streaming
    through arrays larger than the L2 cache."""
    np, wave, matrix, counts = _inputs()
    table = {}
    acc = 0
    for i in range(30_000):
        table[i & 1023] = acc
        acc = (acc * 31 + i) & 0xFFFF
    for _ in range(6):
        np.fft.fft(wave)
        np.exp(1j * wave)
        matrix @ matrix
    for shift in (1, 2, 3):
        np.max(counts[shift:] - counts[:-shift])


def reference_seconds() -> float:
    """The median of REPEATS timings of the kernel."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def speed(before: float, after: float) -> float:
    """The factor that scales seconds measured between two reference
    timings to seconds on the baseline host."""
    return 2 * REFERENCE_S / (before + after)
