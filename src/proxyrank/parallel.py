"""Forked workers under one policy: every process does its numerical work on
one BLAS thread, and parallelism comes only from workers, one per CPU, so the
output bits are the same on any host. numpy's OpenBLAS reads the pin below
when numpy is imported, so the package imports this module first. A value
already set is kept, and the output is then that thread count's.
"""
from __future__ import annotations

import os
from collections.abc import Callable

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


def run_tasks(names: list[str], run: Callable[[int], object]) -> list:
    """``[run(i) for i in range(len(names))]``, computed on forked workers.

    The task indices are dealt round-robin to ``min(_max_workers(),
    len(names))`` workers; with one, they run in-process. A worker inherits
    ``run`` and whatever it reads through fork, so nothing is pickled on the
    way in, and sends its results back through a pipe in its task order.
    Every worker is joined before this returns or raises. A worker that
    dies, or whose result cannot be pickled, loses the rest of its tasks;
    once the other workers are done, StageError names (by ``names``) the
    first lost task in task order, so the error does not depend on which
    worker failed first.
    """
    n_workers = min(_max_workers(), len(names))
    if n_workers <= 1:
        return [run(t) for t in range(len(names))]
    import multiprocessing  # loaded only by a stage that forks
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    results = [None] * len(names)
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
        while owing:
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
                    results[owed.pop(0)] = value
                else:
                    lost[owed[0]] = value
                    owed.clear()
                    proc.kill()
                if not owed:
                    del owing[reader]
                    reader.close()
    finally:
        for reader, (proc, _) in owing.items():
            proc.kill()
            reader.close()
        for proc in procs:
            proc.join()
    if lost:
        raise StageError(lost[min(lost)])
    return results
