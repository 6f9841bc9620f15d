"""Window groups over the usable CPUs, for the graph-free batch forwards.

Evaluation and calibration split a batch's windows into contiguous groups,
at most one per CPU that this process may run on, and run each group on a
process-wide thread pool (numpy releases the GIL inside BLAS and its
array loops). The forward kernels are row-stable (see `familykit.tensor`):
a window's values do not depend on the windows computed with it. Results
come back in window order and every reduction over them runs in window
order, so the worker count never changes a bit. Nothing sets it: it is the
CPU count of the process's affinity mask, and no group of several is
smaller than `MIN_GROUP` windows. Training (whose backward products are plain
`np.matmul` over all rows), decoding (sequential) and the identity check
never come here.

The pool is made on first use and lives as long as the process (a forked
child makes its own). A pool per call would start its threads again for
every batch: on a 2-vCPU host the round trip of an empty task took a
median 35-44 us on the process-wide pool and 180-214 us through a fresh
`ThreadPoolExecutor`, and calibration of the grown desk model (32 windows,
about 21 ms) was 0.7-2.6 ms slower with a pool per call in 5 of 6
alternating runs.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, TypeVar

T = TypeVar("T")

# Windows in the smallest group worth a thread. On a 2-vCPU host at the desk
# shapes, the eval pass of 32 windows ran 39% faster in two groups of 16,
# 20% faster in groups of 8, and slower than serial in groups of 4.
MIN_GROUP = 16

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """A forked child has none of its parent's threads: it makes its own pool."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # no fork, and no hook, on Windows
    os.register_at_fork(after_in_child=_forget_pool)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def group_bounds(n: int, unit: int = 1) -> list[tuple[int, int]]:
    """Contiguous [start, stop) groups covering range(n): at most one per
    usable CPU and, for a `unit` that divides `MIN_GROUP`, at least
    `MIN_GROUP` windows in each. Every bound but the last stop is a multiple
    of `unit`. The groups' whole units differ by at most one, the larger
    first, and the last group also takes the partial unit at the end."""
    count = max(1, min(usable_cpus(), n // MIN_GROUP))
    per, extra = divmod(n // unit, count)
    bounds, start = [], 0
    for g in range(count):
        stop = n if g == count - 1 else start + (per + (g < extra)) * unit
        bounds.append((start, stop))
        start = stop
    return bounds


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            # the calling thread runs the first group itself
            _pool = ThreadPoolExecutor(max(1, usable_cpus() - 1), "familykit-group")
        return _pool


def map_groups(fn: Callable[[int, int], T], n: int, unit: int = 1) -> list[T]:
    """[fn(start, stop) for each of `group_bounds(n, unit)`], in window order.

    One group runs inline and creates no pool. Otherwise the calling thread
    runs the first group while the pool runs the others. Every group
    finishes before anything is returned or raised; an exception is the
    first in window order, raised as the group raised it."""
    first, *rest = group_bounds(n, unit)
    if not rest:
        return [fn(*first)]
    pool = _executor()
    futures = [pool.submit(fn, *b) for b in rest]
    try:
        head = fn(*first)
    finally:
        wait(futures)
    return [head] + [f.result() for f in futures]
