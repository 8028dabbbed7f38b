"""Forked workers under one policy: every process does its numerical work on
one BLAS thread, and parallelism comes only from workers, one per CPU, so the
output bits are the same on any host. numpy's OpenBLAS reads the pin below
when numpy is imported, so the package imports this module first. A value
already set is kept, and the output is then that thread count's.

The parent's allocator is pinned too (``_pin_malloc_thresholds``), so that
its peak is that of the arrays it holds, not of the order of its allocations
and frees; a forked worker reuses its freed memory instead.
"""
from __future__ import annotations

import os
from collections.abc import Callable, Iterator
from contextlib import suppress

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# glibc <malloc.h> options, and the values this package fixes them at.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD, _MMAP_THRESHOLD = 64 << 20, 1 << 20
# A forked worker's mmap threshold: the ceiling of glibc's own dynamic one.
_WORKER_MMAP_THRESHOLD = 32 << 20
_MALLOC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")


def _mallopt(*settings: tuple[int, int]) -> None:
    """Set each (option, value) of glibc's malloc. A ``_MALLOC_VARS``
    variable already set is kept, and other C libraries are left alone."""
    if any(var in os.environ for var in _MALLOC_VARS):
        return
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return
    import ctypes
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for option, value in settings:
        mallopt(option, value)


def _pin_malloc_thresholds() -> None:
    """Fix glibc's malloc thresholds: every block of 1 MiB or more is mapped
    on its own and unmapped when freed, and the heap gives memory back only
    when more than 64 MiB is free at its top.

    By default glibc raises the mmap threshold to the size of each mapped
    block it frees, up to 32 MiB, so once a whole-cohort array has been
    freed the arrays after it come from the heap, and which freed blocks
    the heap can give back then depends on the order of the allocations:
    when the parent still took the workers' results as they arrived,
    ``analyze`` at n=50k peaked at about 87 or, in about one run in ten,
    about 103 MiB in repeated identical runs (2 vCPUs, one BLAS thread).
    The trim threshold is fixed with it, high enough that the heap does not
    give back and fault in again the same pages op after op: at glibc's
    128 KiB a ``rank`` of the three tree families at n=10k took 3.1-3.4 s
    where it takes 2.3-2.6 s. This is the parent's policy; each forked
    worker raises its own mmap threshold (``_WORKER_MMAP_THRESHOLD``).
    """
    _mallopt((_M_MMAP_THRESHOLD, _MMAP_THRESHOLD), (_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))


_pin_malloc_thresholds()


class StageError(RuntimeError):
    """A stage failed for a reason outside every model: an output directory
    that cannot be written, or a worker that returned no result."""


def _max_workers() -> int:
    """How many workers may run at once: the CPUs this process may run on;
    1 where the process cannot fork, so that every task runs in-process."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def iter_tasks(names: list[str], run: Callable[[int], object]) -> Iterator:
    """Yield ``run(i)``, or the exception it raised (``_call``), for ``i in
    range(len(names))``, in task order, computed on forked workers.

    ``min(_max_workers(), len(names))`` workers take the task indices on
    demand, and a result read ahead of its turn waits for it; no task more
    than ``2 * n_workers`` past the next one to yield is started. With one
    worker the tasks run in-process, one per yield. A worker inherits ``run``
    and what it reads through fork, so only the index is pickled on the way
    in, and its allocator reuses freed memory (``_WORKER_MMAP_THRESHOLD``).
    Every worker is killed and joined when the generator ends or is closed
    (``contextlib.closing``, to stop early). A worker that dies, or whose
    result cannot be pickled or unpickled, loses the task it held, and
    StageError names (by ``names``) the first lost task in task order once
    every earlier result has been yielded, whichever worker failed first.
    """
    n_workers = min(_max_workers(), len(names))
    return _tasks(names, run, n_workers if n_workers > 1 else 0)


def on_worker(name: str, run: Callable[[], object]) -> object:
    """``run()``, or the exception it raised, computed on a forked worker of
    its own when this process may use more than one CPU, and in-process
    otherwise, so that nothing it allocates along the way stays in this
    process. The worker is one of ``iter_tasks``: a worker that dies, or
    whose result cannot be pickled or unpickled, raises StageError naming
    ``name``."""
    (value,) = _tasks([name], lambda t: run(), 1 if _max_workers() > 1 else 0)
    return value


def _call(run: Callable[[int], object], t: int) -> object:
    """The value of task t, on a worker and in-process alike: ``run(t)``, or
    the exception it raised without its traceback, which would hold the
    task's frames. An exit or an interrupt is not caught."""
    try:
        return run(t)
    except Exception as exc:
        return exc.with_traceback(None)


def _serve(conn, parent_ends: list, names: list[str], run: Callable[[int], object]) -> None:
    """A forked worker: run each task index read from ``conn`` and send back
    (True, its value), or (False, why) and stop if it cannot be pickled. It
    closes the parent's ends of the pipes, so that it ends with the parent."""
    for end in parent_ends:
        end.close()
    _mallopt((_M_MMAP_THRESHOLD, _WORKER_MMAP_THRESHOLD))
    with suppress(EOFError):  # the parent has gone
        while True:
            t = conn.recv()
            try:  # the value is not kept: the next task needs the worker's memory
                conn.send((True, _call(run, t)))
            except Exception as exc:  # pickling failed; nothing was sent
                conn.send((False, f"the worker cannot return {names[t]}: "
                                  f"{type(exc).__name__}: {exc}"))
                return


def _tasks(names: list[str], run: Callable[[int], object], n_workers: int) -> Iterator:
    """``iter_tasks`` on ``n_workers`` forked workers; in-process with 0."""
    if not n_workers:
        for t in range(len(names)):
            yield _call(run, t)
        return
    import multiprocessing  # loaded only by a stage that forks
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    procs, idle, held, done = {}, [], {}, {}  # held: conn -> its task; done: task -> result
    started, stop = 0, len(names)  # no task at or past the first lost one is started
    try:
        for w in range(n_workers):
            conn, child = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(child, [*procs, conn], names, run),
                               name=f"proxyrank-worker-{w}")
            proc.start()
            child.close()  # so that conn reads EOF once the worker is gone
            procs[conn] = proc
            idle.append(conn)
        for t in range(len(names)):
            while t not in done:
                while idle and started < min(stop, t + 2 * n_workers + 1):
                    held[idle[0]] = started
                    with suppress(OSError):  # a worker gone: its conn reads EOF below
                        idle.pop(0).send(started)
                    started += 1
                for conn in wait(list(held)):
                    s = held.pop(conn)
                    try:
                        done[s] = conn.recv()
                    except (EOFError, ConnectionResetError):  # reset: it died unread
                        procs[conn].join()
                        done[s] = (False, f"the worker died running {names[s]} "
                                          f"(exit code {procs[conn].exitcode})")
                    except Exception as exc:  # a result that cannot be unpickled
                        done[s] = (False, f"cannot read the result of {names[s]}: "
                                          f"{type(exc).__name__}: {exc}")
                    if done[s][0]:
                        idle.append(conn)
                    else:  # every task before s has been started
                        stop = min(stop, s)
            if not done[t][0]:
                raise StageError(done[t][1])
            yield done.pop(t)[1]  # not kept here while the next result is read
    finally:
        for conn, proc in procs.items():
            proc.kill()
            conn.close()
        for proc in procs.values():
            proc.join()
