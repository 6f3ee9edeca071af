"""Replicate-parallel map with deterministic results.

Each work item is self-contained (it derives its own substream), so the
result list depends only on the argument list, never on the worker
count.  Workers are processes (fork) because the per-replicate work is
CPU-bound numpy + Python.
"""

from __future__ import annotations

import multiprocessing
import operator
import os
from concurrent.futures import ProcessPoolExecutor

from .errors import BadConfig


def effective_workers(workers: int | None) -> int:
    """Resolve the worker count: explicit value, else PAV_THREADS, else 1."""
    if workers is None:
        env = os.environ.get("PAV_THREADS", "").strip()
        workers = int(env) if env.removeprefix("-").isdecimal() else env or 1
    try:
        workers = operator.index(workers)
    except TypeError:
        raise BadConfig(f"--threads/PAV_THREADS must be an integer, not {workers!r}") from None
    if workers < 1:
        raise BadConfig(f"--threads/PAV_THREADS must be >= 1, not {workers}")
    return workers


def replicate_map(fn, items, workers: int | None = 1) -> list:
    """Apply fn to each item, in a pool of min(workers, CPUs this process
    may run on, items) processes when that is above 1.

    Results are returned in item order, so aggregation downstream is
    independent of scheduling.
    """
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(effective_workers(workers), cpus or 1, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    chunk = max(1, len(items) // (4 * workers))
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        return list(pool.map(fn, items, chunksize=chunk))
