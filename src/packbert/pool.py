"""One pool of pinned worker threads, shared by attention and the layer stack.

The pool holds usable CPUs // BLAS threads workers, each pinned to its own
CPU; numpy releases the GIL inside matmul and ufunc loops, so tasks run at
the same time.  The caller is never pinned and only waits.  Callers decide
which calls are large enough to hand out and split them into fixed tasks
that write disjoint outputs; since no task's extent depends on the worker
count, results are bit-identical for any count.  The pool is created, and
the BLAS thread count probed, only at the first call that uses it.
"""

from __future__ import annotations

import itertools
import os

_workers: int | None = None  # resolved at the first call that uses the pool
_pool = None  # (workers, ThreadPoolExecutor), created with it


def _worker_count() -> int:
    """Usable CPUs // BLAS threads, found once; 1 if the BLAS is unknown."""
    global _workers
    if _workers is None:
        from .util import blas_threads

        threads = blas_threads() if hasattr(os, "sched_setaffinity") else None
        _workers = max(1, len(os.sched_getaffinity(0)) // threads) if threads else 1
    return _workers


def _pin(cpus, slots):
    # Pid 0 is the calling thread: only this worker moves.  Workers beyond
    # the CPU count (tests ask for them) share CPUs.
    os.sched_setaffinity(0, {cpus[next(slots) % len(cpus)]})


def _executor(workers: int):
    global _pool
    if _pool is None or _pool[0] != workers:
        from concurrent.futures import ThreadPoolExecutor

        if _pool is not None:
            _pool[1].shutdown()
        cpus = sorted(os.sched_getaffinity(0))
        pool = ThreadPoolExecutor(
            workers, thread_name_prefix="packbert-pool",
            initializer=_pin, initargs=(cpus, itertools.count()),
        )
        _pool = (workers, pool)
    return _pool[1]


def _drain(fn, tasks):
    # Workers share one iterator; next() on it is atomic under the GIL.
    for task in tasks:
        fn(task)


def _run(fn, tasks, large: bool = True):
    """fn(task) for every task: on the pool if the call is ``large`` and has several tasks."""
    workers = _worker_count() if large and len(tasks) > 1 else 1
    if workers == 1:
        _drain(fn, tasks)
        return
    from concurrent.futures import wait

    shared = iter(tasks)
    pool = _executor(workers)
    futures = [pool.submit(_drain, fn, shared) for _ in range(min(workers, len(tasks)))]
    wait(futures)
    for f in futures:
        f.result()
