"""Ordered parallel map honoring the RADIALSCOPE_THREADS cap.

Work items must be independent and side-effect free; results come back
in input order, so parallel and sequential runs are byte-identical.
"""

from __future__ import annotations

import os

THREADS_ENV = "RADIALSCOPE_THREADS"


def thread_cap() -> int:
    try:
        return max(1, int(os.environ.get(THREADS_ENV, "1")))
    except ValueError:
        return 1


def parallel_map(fn, items):
    items = list(items)
    n = thread_cap()
    if n <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # imported here: concurrent.futures (and logging) would cost every cold start
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))
