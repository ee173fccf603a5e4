"""Machine probes recorded with every benchmark run, printed as one JSON line.

Usage: python3 perfbench/probe.py

They run in a child process so that the benchmark's own process stays
small: a child's peak RSS as reported by wait4 starts from its parent's.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

ARRAY_BYTES = 128 * 1024 * 1024
LOOP = 2_000_000


def membw_gbs() -> float:
    """GB/s of an in-place XOR of two 128 MiB uint64 arrays (3 bytes moved per byte), median of 5.

    The arrays are smaller than four times the 105 MiB shared L3 of the
    2-core Xeon VM this was tuned on, to keep the probe's memory small, so
    part of the traffic may hit cache.
    """
    a = np.arange(ARRAY_BYTES // 8, dtype=np.uint64)
    b = a[::-1].copy()
    rates = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.bitwise_xor(a, b, out=a)
        rates.append(3 * ARRAY_BYTES / (time.perf_counter() - t0) / 1e9)
    return statistics.median(rates)


def pyloop_s() -> float:
    """Seconds of a fixed 2M-iteration pure-Python integer loop, median of 3."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(LOOP):
            acc ^= (i * i) & 0xFFFF
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


if __name__ == "__main__":
    print(json.dumps({"membw_gbs": membw_gbs(), "pyloop_s": pyloop_s(), "numpy": np.__version__}))
