"""Thread-pool helpers shared by the simulator and the c_lip section search.

Work is cut into contiguous ranges, each range runs as one call, and the
results come back in range order, so a caller that joins them in order gets
the same bytes at any thread count.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence

# usable cores, the most ranges a caller runs at once
_THREADS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _in_order(pool: Optional[ThreadPoolExecutor], fn: Callable, args: Sequence[tuple]) -> list:
    """``[fn(*a) for a in args]``, inline without a pool.  On a pool each call
    runs in a copy of the caller's context, so np.errstate applies on every
    thread as it does inline, and results come back in the order of ``args``."""
    if pool is None:
        return [fn(*a) for a in args]
    futures = [pool.submit(contextvars.copy_context().run, fn, *a) for a in args]
    return [f.result() for f in futures]


def _ranges(n: int, parts: int) -> list[tuple[int, int]]:
    """``range(n)`` cut into at most ``parts`` contiguous, non-empty
    ``(lo, hi)`` ranges of near-equal length."""
    parts = max(1, min(parts, n))
    edges = [n * p // parts for p in range(parts + 1)]
    return list(zip(edges, edges[1:]))
