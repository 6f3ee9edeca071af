"""Replicate-parallel map with deterministic results.

Each work item is self-contained (it derives its own substream), so the
result list depends only on the argument list, never on the worker
count.  Workers are processes (fork) because the per-replicate work is
CPU-bound numpy + Python.

Replicates allocate and free arrays of megabytes each.  glibc malloc
starts by mapping such arrays afresh and by trimming the heap whenever
its free top passes a threshold; both thresholds move with the history
of frees, so the same replicate took from 300 to 2,700 page faults (1 to
7 ms of system time at n = 1e5) depending on the state the process had
reached.  replicate_map fixes them at the ceilings glibc's own rule can
reach, once per process, and pool workers inherit them through fork; it
trims the heap before a fork, so workers do not start out holding the
free pages the settings keep.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

from .errors import BadConfig, integer


def effective_workers(workers: int) -> int:
    """The worker count, an integer of at least 1."""
    return integer(workers, "--threads", BadConfig, lo=1)


# mallopt parameters, and the ceiling of glibc's dynamic mmap threshold on
# 64-bit systems; glibc raises the trim threshold to twice it
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 32 << 20

try:
    _LIBC = ctypes.CDLL(None)
except (OSError, TypeError):  # no C library to load this way
    _LIBC = None


@functools.cache
def _keep_heap_resident() -> bool:
    """Have malloc serve blocks under 32 MiB from the heap and keep up to
    64 MiB of free heap mapped, so a replicate reuses the pages the last
    one freed.  Returns whether the C library took both settings; where
    it has no mallopt (not glibc), nothing changes."""
    mallopt = getattr(_LIBC, "mallopt", None)
    return (mallopt is not None
            and mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX) == 1
            and mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX) == 1)


def replicate_map(fn, items, workers: int = 1) -> list:
    """Apply fn to each item, in a pool of min(workers, CPUs this process
    may run on, items) processes when that is above 1.

    Results are returned in item order, so aggregation downstream is
    independent of scheduling.
    """
    items = list(items)
    _keep_heap_resident()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(effective_workers(workers), cpus or 1, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    chunk = max(1, len(items) // (4 * workers))
    if hasattr(_LIBC, "malloc_trim"):
        _LIBC.malloc_trim(0)
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        return list(pool.map(fn, items, chunksize=chunk))
