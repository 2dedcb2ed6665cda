"""Seed-stable parallel execution of independent Monte Carlo tasks.

One process pool serves a whole run: inside :func:`pool_scope`, the calls of
:func:`parallel_starmap` with one ``jobs`` value share one pool, whose workers
are forked once, at the first parallel call. A scope opened inside another
reuses its pool; the outermost one shuts it down and joins its workers on
exit, on an exception too. A call outside every scope opens its own.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar

# jobs -> pool of the outermost open scope, or None outside every scope
_pools: ContextVar[dict | None] = ContextVar("abperc_pools", default=None)


@contextmanager
def pool_scope():
    """Share one process pool per ``jobs`` value among the parallel calls
    inside; usable as a decorator too."""
    if _pools.get() is not None:
        yield
        return
    pools = {}
    token = _pools.set(pools)
    try:
        yield
    finally:
        _pools.reset(token)
        for pool in pools.values():
            pool.shutdown(cancel_futures=True)


def parallel_starmap(fn, tasks, jobs: int = 1) -> list:
    """Apply ``fn(*task)`` to every task, preserving task order.

    Task seeds are derived from their own indices, so the result is
    byte-identical for any ``jobs`` value; only wall time changes.
    """
    tasks = list(tasks)
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(*t) for t in tasks]
    with pool_scope():
        pools = _pools.get()
        if jobs not in pools:
            # all forked at the first map: workers beyond the CPUs add no speed
            pools[jobs] = ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1))
        chunk = max(1, len(tasks) // (4 * jobs))
        return list(pools[jobs].map(fn, *zip(*tasks), chunksize=chunk))
