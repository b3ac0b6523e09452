"""One ordered process map for independent solves: the selftest criteria's
schedule (one call per resolution) and sweep.

Workers are forked, so they inherit the imported numpy and scipy instead of
importing them again (a spawned or forkserver worker pays about 0.5 s for
that).  A fork copies only the calling thread; the package starts no
threads of its own, and the pool forks all its workers before it starts its
manager thread.  The pool is created inside ``map_ordered`` and closed
before it returns, so no worker outlives a call and importing this module
starts nothing.  Each call pays for creating and closing its pool (about
16 ms for two workers), so a caller with many solves hands them over in
one call; the selftest schedule returns each solve's exception as a value,
so that the criterion owning that solve raises it.
"""

from __future__ import annotations

import os


def usable_cores() -> int:
    """Cores this process may run on: its affinity mask (which respects
    taskset and cpusets), else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def map_ordered(fn, items, jobs: int | None = None) -> list:
    """``[fn(item) for item in items]``, on up to ``jobs`` forked workers
    (default: one per usable core).

    Results come back in input order.  A worker's exception is raised here
    as itself, once the items already running have finished.  ``fn`` must
    be a module-level function and items and results picklable.  With one
    worker, or one item, this is the plain loop in this process.
    """
    items = list(items)
    workers = min(len(items), jobs or usable_cores())
    if workers <= 1:
        return [fn(item) for item in items]
    import multiprocessing  # here, not at import: a serial run never loads it
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, items))
