"""Worker-count policy for row-level parallelism.

K3LAT_THREADS caps the number of worker processes; 0 or unset means pick
automatically from the CPU count. Results come back in input order, so
anything computed here is deterministic regardless of scheduling.
"""

from __future__ import annotations

import os


def worker_count(n_tasks: int) -> int:
    raw = os.environ.get("K3LAT_THREADS", "0").strip()
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"K3LAT_THREADS must be a nonnegative integer, got {raw!r}")
    if cap < 0:
        raise ValueError("K3LAT_THREADS must be nonnegative")
    if cap == 0:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_tasks))


def parallel_map(fn, items) -> list:
    """Map a picklable function over items, in order, with capped workers."""
    items = list(items)
    workers = worker_count(len(items))
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # Imported here: concurrent.futures and multiprocessing cost a command
    # that never starts a pool a large share of its start-up.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
