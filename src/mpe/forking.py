"""The one rule by which a stage runs work on `fork`ed worker processes."""

import concurrent.futures
import os
import threading
from typing import Callable, Sequence


def fork_workers(limit: int) -> int:
    """`limit`, at most the CPUs the process may run on; 1 while another
    thread is alive, since a lock it holds would stay held in a child."""
    return min(limit, len(os.sched_getaffinity(0))) if threading.active_count() == 1 else 1


def fork_map(fn: Callable, calls: Sequence[tuple], limit: int) -> list:
    """`fn(*args)` for each `args` of `calls`, in call order, on up to
    fork_workers(limit) workers forked by a ProcessPoolExecutor (a spawned
    one would import numpy again), or here in series below two. The pool
    joins its workers before this returns, also after a failed call, whose
    error (the first in call order) is raised again with its own type."""
    workers = min(fork_workers(limit), len(calls))
    if workers < 2:
        return [fn(*args) for args in calls]
    import multiprocessing  # only a run that forks pays for the import
    context = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(workers, mp_context=context) as pool:
        futures = [pool.submit(fn, *args) for args in calls]
        return [future.result() for future in futures]
