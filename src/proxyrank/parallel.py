"""Forked workers under one policy: every process does its numerical work on
one BLAS thread, and parallelism comes only from workers, one per CPU, so the
output bits are the same on any host. numpy's OpenBLAS reads the pin below
when numpy is imported, so the package imports this module first. A value
already set is kept, and the output is then that thread count's.

The allocator is pinned too (``_pin_malloc_thresholds``), so that a
process's peak memory is that of the arrays it holds, not of the order of
its allocations and frees.
"""
from __future__ import annotations

import os
from collections.abc import Callable, Iterator

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# glibc <malloc.h> options, and the values this package fixes them at.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD, _MMAP_THRESHOLD = 64 << 20, 1 << 20
_MALLOC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")


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
    where it takes 2.3-2.6 s. A ``MALLOC_MMAP_THRESHOLD_``,
    ``MALLOC_TRIM_THRESHOLD_`` or ``GLIBC_TUNABLES`` already set is kept,
    and other C libraries are left alone.
    """
    if any(var in os.environ for var in _MALLOC_VARS):
        return
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return
    import ctypes

    libc = ctypes.CDLL(None)
    libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    libc.mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


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

    The task indices are dealt round-robin to ``min(_max_workers(),
    len(names))`` workers; with one, they run in-process, one per yield. A
    worker inherits ``run`` and whatever it reads through fork, so nothing is
    pickled on the way in, and sends its results back through a pipe in its
    task order; task t's is read from worker ``t % n_workers`` in its turn,
    so a worker that is ahead waits to send it. Every worker is joined before
    the generator finishes, raises or is closed, so close it
    (``contextlib.closing``) when stopping early. A worker that dies, or
    whose result cannot be pickled or unpickled, loses the rest of its
    tasks, and StageError names (by ``names``) the first lost task in task
    order once every earlier result has been yielded, so the error does not
    depend on which worker failed first.
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


def _tasks(names: list[str], run: Callable[[int], object], n_workers: int) -> Iterator:
    """``iter_tasks`` on ``n_workers`` forked workers; in-process with 0."""
    if not n_workers:
        for t in range(len(names)):
            yield _call(run, t)
        return
    import multiprocessing  # loaded only by a stage that forks

    ctx = multiprocessing.get_context("fork")
    procs, readers = [], []
    try:
        for w in range(n_workers):
            reader, writer = ctx.Pipe(duplex=False)

            def work(w=w, writer=writer):
                for t in range(w, len(names), n_workers):
                    result = _call(run, t)
                    try:
                        writer.send((True, result))
                    except Exception as exc:  # pickling failed; nothing was sent
                        writer.send((False, f"the worker cannot return {names[t]}: "
                                            f"{type(exc).__name__}: {exc}"))
                        return

            proc = ctx.Process(target=work, name=f"proxyrank-worker-{w}")
            proc.start()
            procs.append(proc)
            readers.append(reader)
            writer.close()  # so the reader sees EOF once the worker is gone
        for t in range(len(names)):
            # Every earlier result of t's worker has been read, so the worker
            # is not blocked, and t is the first lost task if it has failed.
            proc = procs[t % n_workers]
            try:
                ok, value = readers[t % n_workers].recv()
            except EOFError:
                proc.join()
                ok, value = False, (f"the worker died running {names[t]} "
                                    f"(exit code {proc.exitcode})")
            except Exception as exc:  # a result that cannot be unpickled
                ok, value = False, (f"cannot read the result of {names[t]}: "
                                    f"{type(exc).__name__}: {exc}")
            if not ok:
                raise StageError(value)
            yield value
    finally:
        for proc, reader in zip(procs, readers):
            proc.kill()
            reader.close()
        for proc in procs:
            proc.join()
