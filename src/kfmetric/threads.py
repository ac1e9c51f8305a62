"""When a helper thread may run next to the main one, and the helper itself.

Three stages overlap work on a helper thread: cross-validation's c x c
eigensolves (:mod:`kfmetric.mkl`), a multi-kernel model's per-term
embedding products (:mod:`kfmetric.metric`) and the triangular solves of a
large Fisher solve (:mod:`kfmetric.kfda`). All follow one rule: the helper
runs only when BLAS runs one thread and the process may use two or more
CPUs (:func:`helper`), and :func:`helper` is the one reader of that rule:
each stage runs one loop, which hands a step to the helper when it yields
one and runs the step itself otherwise. With one BLAS thread a GEMM, a
triangular solve or an eigensolve gives the same bits on any thread, so
overlapping moves no result. With BLAS threads unset, OpenBLAS runs a pool
of one thread per CPU, which a helper would contend with, and on one CPU
there is nothing to overlap. The eigensolver follows the thread: scipy's
syevd on the main thread, numpy's eigh, which releases the GIL, only on
the helper. The embedding and the Fisher solve also read one size rule,
:data:`HELPER_MACS`, so a small product or solve starts no thread.
"""

from __future__ import annotations

import contextlib
import os
from concurrent.futures import ThreadPoolExecutor


# the fewest multiply-adds of one step for which a stage hands work to a
# helper thread. Embedding counts one term's product (rows x basis x
# discriminants): a 900-row gallery against a 600-sample basis and 299
# discriminants (161M) overlaps, a 10-probe batch there (1.8M) or a
# protocol-sized model does not. The Fisher solve counts one triangular
# solve (about n^2 c / 2): a 600-sample training pencil of 300 classes
# (54M) splits, a protocol-sized one (n = 80, c = 40: 0.1M) does not. Below
# it, no thread starts
HELPER_MACS = 1 << 24


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
