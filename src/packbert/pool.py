"""One pool of pinned worker threads, shared by attention and the layer stack.

Importing it, as `model` and `kernels` do, sets BLAS to one thread whatever
OPENBLAS_NUM_THREADS says, so no bit depends on that variable, and the pool
holds a worker per usable CPU (one if no settable BLAS is found), each
pinned to its own CPU.  numpy releases the GIL inside matmul and ufunc loops,
so tasks run at the same time; the caller is never pinned and only waits.
Callers split calls large enough to hand out into fixed tasks with disjoint
outputs; no task's extent depends on the worker count, so results are
bit-identical for any count.  The pool is created at the first call using it.
"""

from __future__ import annotations

import itertools
import os

from .util import pin_blas_to_one_thread

# util imports numpy, which maps the BLAS.  The lookup reads /proc/self/maps, so
# a pin succeeds only on Linux, where os.sched_getaffinity exists too.
_BLAS_PINNED = pin_blas_to_one_thread()
_workers: int | None = None  # resolved at the first call that uses the pool
_pool = None  # (workers, ThreadPoolExecutor), created with it


def _worker_count() -> int:
    """Usable CPUs if BLAS runs on one thread, found once; else 1."""
    global _workers
    if _workers is None:
        _workers = len(os.sched_getaffinity(0)) if _BLAS_PINNED else 1
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
