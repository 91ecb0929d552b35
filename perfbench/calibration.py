"""Machine-speed calibration for a shared benchmark machine.

The machine this benchmark was written on is shared with other tenants,
and its speed for single-threaded Python drifts by up to about 1.7x, in
bursts of seconds and in shifts that last minutes, on every workload at
once.  No statistic taken inside one run removes a shift longer than the
run.  So the harness also times this fixed kernel, which uses no exlab
code: three times before the first round and after every round of jobs,
and once more in each fresh interpreter that measures set-up time.  Time
metrics are multiplied by ``REFERENCE_S / kernel time`` measured next to
them.  A change to exlab moves the scaled metrics by the same factor as
the raw ones, because the kernel does not change; the raw values are
reported next to the scaled ones.

The kernel does the kinds of work exlab spends its time on: Bernoulli
draws setting bits of big-integer adjacency rows, popcounts of row
intersections, shuffles, tuple and dict traffic, and JSON encoding.
"""

from __future__ import annotations

import json
import random
import time

# Median kernel time on the reference machine (2 vCPU, CPython 3.11.7).
REFERENCE_S = 0.004


def kernel() -> int:
    rng = random.Random(20150702)
    draw = rng.random
    n = 192
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if draw() < 0.5:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    common = sum((rows[u] & rows[v]).bit_count()
                 for u in range(0, n, 2) for v in range(1, n, 3))
    order = list(range(n))
    rng.shuffle(order)
    seen = {}
    for u in order:
        key = tuple(range(u % 7, n, 11))
        seen[key] = seen.get(key, 0) + rows[u].bit_count()
    blob = json.dumps({"rows": [r & 0xFFFF for r in rows], "common": common,
                       "seen": sorted(seen.values())}, sort_keys=True)
    return len(blob)


def sample(times: list, reps: int = 3) -> None:
    """Append the wall time of ``reps`` kernel runs to ``times``."""
    for _ in range(reps):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
