"""Seed-stable parallel execution of independent Monte Carlo tasks."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar

# jobs -> pool of the outermost open scope, or None outside every scope
_pools: ContextVar[dict | None] = ContextVar("abperc_pools", default=None)


@contextmanager
def pool_scope():
    """Share one process pool per ``jobs`` value, forked at the first parallel
    call, among the calls inside; usable as a decorator too. A scope inside
    another reuses its pools; the outermost shuts them down and joins their
    workers on exit, on an exception too."""
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
    byte-identical for any ``jobs`` value; only wall time changes. A call
    outside every :func:`pool_scope` opens its own.
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
