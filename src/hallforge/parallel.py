"""Worker-pool helper gated by HALLFORGE_THREADS (0 or unset = sequential).

Tasks must be module-level functions with picklable arguments; results are
returned in submission order so parallel runs are bit-identical to
sequential ones.
"""

from __future__ import annotations

import os

from .errors import HallforgeError


def worker_count(tasks=None):
    """HALLFORGE_THREADS clamped to the CPU count and, when given, to the
    number of tasks: the fork start method starts every worker at once.
    A value that is not an integer raises HallforgeError."""
    value = os.environ.get("HALLFORGE_THREADS", "0")
    try:
        n = max(0, int(value))
    except ValueError:
        raise HallforgeError("HALLFORGE_THREADS=%r is not an integer" % value) from None
    n = min(n, os.cpu_count() or 1)
    return n if tasks is None else min(n, tasks)


def pmap(fn, items):
    items = list(items)
    n = worker_count(len(items))
    if n <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))
