"""When a helper thread may run next to the main one, and the helper itself.

Two stages overlap work on a helper thread: cross-validation's c x c
eigensolves (:mod:`kfmetric.mkl`) and a multi-kernel model's per-term
embedding products (:mod:`kfmetric.metric`). Both follow one rule: the
helper runs only when BLAS runs one thread and the process may use two or
more CPUs (:func:`helper`), and :func:`helper` is the one reader of that
rule: each stage runs one loop, which hands a step to the helper when it
yields one and runs the step itself otherwise. With one BLAS thread a GEMM
or an eigensolve gives the same bits on any thread, so overlapping moves no
result. With BLAS threads unset, OpenBLAS runs a pool of one thread per
CPU, which a helper would contend with, and on one CPU there is nothing to
overlap. The eigensolver follows the thread: scipy's syevd on the main
thread, numpy's eigh, which releases the GIL, only on the helper.
"""

from __future__ import annotations

import contextlib
import os
from concurrent.futures import ThreadPoolExecutor


def _cpus_usable() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# OpenBLAS, which numpy's and scipy's wheels each bundle, takes its thread
# count from the first of these set to a positive number when it loads, and
# otherwise runs one thread per CPU
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _one_blas_thread() -> bool:
    """Whether BLAS runs one thread, by the variables OpenBLAS reads."""
    for var in _BLAS_THREADS:
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads == 1
    return False


@contextlib.contextmanager
def helper(name: str):
    """One helper thread for the context, if the rule allows one, else None.

    With one BLAS thread and two or more usable CPUs, yields a
    ``start(fn, *args)`` that runs ``fn(*args)`` on the helper and returns a
    call that waits for its result. The helper is named ``name``; it ends
    when the context exits, returns or raises, once the call it runs is
    done, and calls not yet started are dropped.
    """
    if not (_one_blas_thread() and _cpus_usable() >= 2):
        yield None
        return
    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix=name)
    try:
        yield lambda fn, *args: pool.submit(fn, *args).result
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
