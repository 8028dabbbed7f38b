"""Forked workers under one policy: every process does its numerical work on
one BLAS thread, and parallelism comes only from workers, one per CPU, so the
output bits are the same on any host. numpy's OpenBLAS reads the pin below
when numpy is imported, so the package imports this module first. A value
already set is kept, and the output is then that thread count's.
"""
from __future__ import annotations

import os
from collections.abc import Callable, Iterator

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


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
    """Yield ``run(i)`` for ``i in range(len(names))``, in task order,
    computed on forked workers.

    The task indices are dealt round-robin to ``min(_max_workers(),
    len(names))`` workers; with one, they run in-process, one per yield. A
    worker inherits ``run`` and whatever it reads through fork, so nothing is
    pickled on the way in, and sends its results back through a pipe in its
    task order; a result that arrives before its turn waits in this process.
    Every worker is joined before the generator finishes, raises or is
    closed, so close it (``contextlib.closing``) when stopping early. A
    worker that dies, or whose result cannot be pickled, loses the rest of
    its tasks, and StageError names (by ``names``) the first lost task in
    task order once every earlier result has been yielded, so the error does
    not depend on which worker failed first.
    """
    n_workers = min(_max_workers(), len(names))
    if n_workers <= 1:
        for t in range(len(names)):
            yield run(t)
        return
    import multiprocessing  # loaded only by a stage that forks
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    arrived = {}  # index of a task whose result is here but not yet yielded -> result
    lost = {}  # index of a worker's first task not returned -> why
    procs, owing = [], {}  # owing: pipe -> (worker, indices of the tasks it owes)
    try:
        for w in range(n_workers):
            owed = list(range(w, len(names), n_workers))
            reader, writer = ctx.Pipe(duplex=False)

            def work(owed=owed, writer=writer):
                for t in owed:
                    result = run(t)
                    try:
                        writer.send((True, result))
                    except Exception as exc:  # pickling failed; nothing was sent
                        writer.send((False, f"the worker cannot return {names[t]}: "
                                            f"{type(exc).__name__}: {exc}"))
                        return

            proc = ctx.Process(target=work, name=f"proxyrank-worker-{w}")
            proc.start()
            procs.append(proc)
            writer.close()  # so the reader sees EOF once the worker is gone
            owing[reader] = (proc, owed)
        for t in range(len(names)):
            # Every task before t has been yielded, so t is the first lost one
            # if its worker has failed.
            while t not in arrived and t not in lost:
                for reader in wait(list(owing)):
                    proc, owed = owing[reader]
                    try:
                        ok, value = reader.recv()
                    except EOFError:
                        proc.join()
                        ok, value = False, (f"the worker died running {names[owed[0]]} "
                                            f"(exit code {proc.exitcode})")
                    except Exception as exc:  # a result that cannot be unpickled
                        ok, value = False, (f"cannot read the result of {names[owed[0]]}: "
                                            f"{type(exc).__name__}: {exc}")
                    if ok:
                        arrived[owed.pop(0)] = value
                    else:
                        lost[owed[0]] = value
                        owed.clear()
                        proc.kill()
                    if not owed:
                        del owing[reader]
                        reader.close()
            if t in lost:
                raise StageError(lost[t])
            yield arrived.pop(t)
    finally:
        for reader, (proc, _) in owing.items():
            proc.kill()
            reader.close()
        for proc in procs:
            proc.join()


def run_tasks(names: list[str], run: Callable[[int], object]) -> list:
    """``[run(i) for i in range(len(names))]``, computed on forked workers
    by ``iter_tasks``, with its errors."""
    return list(iter_tasks(names, run))
