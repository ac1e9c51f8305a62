"""Memory peak of one trial; prints one JSON line.

    PYTHONPATH=src python tests/peak_memory.py IDENTITIES METHOD

Runs one ``run_trials`` trial (seed 0, default ``RunConfig``: 0.5 train
fraction, 20 kernels, 10 folds) of METHOD on ``make_synthetic(IDENTITIES,
noise=0.6, seed=0)`` with BLAS pinned to one thread, and prints

* ``traced_mb``: the tracemalloc peak over the trial, in MB (10^6 bytes);
* ``maxrss_mb``: the process's ``ru_maxrss`` after it, in MB;
* ``seconds``: the trial's wall time, with tracemalloc on;
* ``rank1_pct``: its rank-1 accuracy.

numpy reports its buffers to tracemalloc, so the traced peak counts the
arrays live at the worst moment of the fit. Run each case in a fresh
interpreter: ``ru_maxrss`` never falls.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import warnings  # noqa: E402

from kfmetric.config import RunConfig  # noqa: E402
from kfmetric.evaluation import run_trials  # noqa: E402
from kfmetric.synthetic import make_synthetic  # noqa: E402


def measure(identities: int, method: str) -> dict:
    ds = make_synthetic(identities, noise=0.6, seed=0)
    cfg = RunConfig()
    tracemalloc.start()
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_trials(ds, method, 1, 0, cfg)
    seconds = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # ru_maxrss is in KiB on Linux
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return {
        "identities": identities,
        "method": method,
        "traced_mb": round(peak / 1e6, 1),
        "maxrss_mb": round(maxrss / 1e6, 1),
        "seconds": round(seconds, 2),
        "rank1_pct": round(100 * report.rank_accuracy(1), 2),
    }


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit("usage: python tests/peak_memory.py IDENTITIES METHOD")
    print(json.dumps(measure(int(sys.argv[1]), sys.argv[2])))
