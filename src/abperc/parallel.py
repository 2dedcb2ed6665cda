"""Seed-stable parallel execution of independent Monte Carlo tasks."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor


def parallel_starmap(fn, tasks, jobs: int = 1) -> list:
    """Apply ``fn(*task)`` to every task, preserving task order.

    Task seeds are derived from their own indices, so the result is
    byte-identical for any ``jobs`` value; only wall time changes.
    """
    tasks = list(tasks)
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(*t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        chunk = max(1, len(tasks) // (4 * jobs))
        return list(pool.map(fn, *zip(*tasks), chunksize=chunk))
