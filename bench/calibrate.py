"""Fixed reference work that measures how fast one CPU runs Python right now.

While a job runs, run.py wakes up every PROBE_GAP_S on the job's CPU and
runs one `chunk()`, a millisecond or two of fixed work, timed by its own
thread's CPU clock.  The mean chunk time over the job's lifetime is how
fast that CPU ran while the job ran.  Nothing here comes from fekete_lab,
so a change to the package cannot move it, while a busy host slows it
down as it slows the job.  A chunk mixes what the jobs spend their time
on: whole-array arithmetic, interpreted float arithmetic on a 64-bit
random stream, and dictionary look-ups over big integers.

    python3 bench/calibrate.py     # prints the median chunk time of a second of chunks
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

MASK = (1 << 64) - 1
PROBE_GAP_S = 0.025  # sleep between chunks while a job runs

# allocated once, so that a chunk touches no new memory
_A = np.linspace(0.5, 2.0, 8_192)
_B = _A[::-1].copy()
_OUT = np.empty_like(_A)


def float_stream(n: int) -> float:
    x, acc = 12345, 0.0
    for _ in range(n):
        x = (x * 6364136223846793005 + 1442695040888963407) & MASK
        u = (x >> 11) * (1.0 / 9007199254740992.0)
        acc += math.sqrt(u * (1.0 - u))
    return acc


def array_sweeps(repeats: int) -> float:
    total = 0.0
    for _ in range(repeats):
        np.multiply(_A, _B, out=_OUT)
        np.sqrt(_OUT, out=_OUT)
        total += float(_OUT.sum())
    return total


def memo_table(n: int) -> int:
    memo: dict[tuple[int, int], int] = {}
    for i in range(n):
        k = (i * 7919) % 50_021
        memo[(k, i & 63)] = memo.get(((k * 3) % 50_021, (i - 1) & 63), 1) + (1 << (i % 200))
    return len(memo)


def chunk() -> float:
    """Run one unit of reference work; return its CPU seconds on this thread."""
    start = time.thread_time()
    array_sweeps(24)
    float_stream(1_200)
    memo_table(600)
    return time.thread_time() - start


if __name__ == "__main__":
    times = []
    end = time.perf_counter() + 1.0
    while time.perf_counter() < end:
        times.append(chunk())
    print(f"{statistics.median(times):.6f} s per chunk, {len(times)} chunks")
