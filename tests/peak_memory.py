"""Memory peak and time of one trial per case; prints one JSON line per case.

    PYTHONPATH=src python tests/peak_memory.py IDENTITIES METHOD
    PYTHONPATH=src python tests/peak_memory.py 158,316,632 np-mfml,sm-mfml

Each case (an identity count and a method; comma lists give every pair, in
order) runs ``run_trials`` trials (seed 0, default ``RunConfig``: 0.5 train
fraction, 20 kernels, 10 folds) of METHOD on ``make_synthetic(IDENTITIES,
noise=0.6, seed=0)`` with BLAS pinned to one thread, and prints

* ``traced_mb``: the tracemalloc peak over one trial, in MB (10^6 bytes);
* ``maxrss_mb``: the process's ``ru_maxrss`` after that trial, in MB;
* ``seconds``: that trial's wall time, with tracemalloc on;
* ``rank1_pct``: its rank-1 accuracy;
* ``untraced_s``: the median wall time of 3 more trials, tracemalloc off,
  and ``untraced_runs_s`` the 3 times;
* ``cpus_usable``: how many CPUs the process may run on. With one BLAS
  thread, as here, and more than one CPU, cross-validation runs each
  eigensolve on a helper thread while the next stack is whitened, so the
  trial times depend on it.

numpy reports its buffers to tracemalloc, so the traced peak counts the
arrays live at the worst moment of the fit. ``ru_maxrss`` never falls, so
each case runs in a fresh interpreter: with more than one case the script
runs itself once per case. There each case's line also holds ``cmc_pct``,
its rank-1/5/10/20 accuracy in percent (the ranks its gallery reaches), and
after the cases one line per method and pair of successive sizes gives the
log-log slopes of ``untraced_s`` and of ``traced_mb`` between them: the
growth exponents of time and of peak memory in the identity count.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import warnings  # noqa: E402

from kfmetric.config import RunConfig  # noqa: E402
from kfmetric.evaluation import run_trials  # noqa: E402
from kfmetric.threads import _cpus_usable  # noqa: E402
from kfmetric.synthetic import make_synthetic  # noqa: E402

UNTRACED_RUNS = 3
CMC_RANKS = (1, 5, 10, 20)


def _trial(ds, method: str):
    """One default trial of ``method`` on ``ds``, and its wall time in seconds."""
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_trials(ds, method, 1, 0, RunConfig())
    return report, time.perf_counter() - start


def measure(identities: int, method: str, cmc: bool = False) -> dict:
    ds = make_synthetic(identities, noise=0.6, seed=0)
    tracemalloc.start()
    report, seconds = _trial(ds, method)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # ru_maxrss is in KiB on Linux
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    untraced = [_trial(ds, method)[1] for _ in range(UNTRACED_RUNS)]
    out = {
        "identities": identities,
        "method": method,
        "traced_mb": round(peak / 1e6, 1),
        "maxrss_mb": round(maxrss / 1e6, 1),
        "seconds": round(seconds, 2),
        "rank1_pct": round(100 * report.rank_accuracy(1), 2),
        "untraced_s": round(statistics.median(untraced), 3),
        "untraced_runs_s": [round(t, 3) for t in untraced],
        "cpus_usable": _cpus_usable(),
    }
    if cmc:
        out["cmc_pct"] = {
            str(k): round(100 * report.rank_accuracy(k), 2) for k in CMC_RANKS if k in report.ranks
        }
    return out


def slopes(results: list) -> list:
    """Per method, the log-log slopes of time and traced peak between successive sizes."""
    out = []
    for method in dict.fromkeys(r["method"] for r in results):
        sizes = sorted((r for r in results if r["method"] == method), key=lambda r: r["identities"])
        for a, b in zip(sizes, sizes[1:]):
            step = math.log(b["identities"] / a["identities"])
            out.append({
                "method": method,
                "identities": [a["identities"], b["identities"]],
                # a figure that rounds to 0 has no slope
                **{f"{key}_slope": round(math.log(b[key] / a[key]) / step, 2)
                   if a[key] > 0 and b[key] > 0 else None
                   for key in ("untraced_s", "traced_mb")},
            })
    return out


if __name__ == "__main__":
    # a third argument, "cmc", is how the script runs itself for one case of several
    if len(sys.argv) not in (3, 4) or sys.argv[3:] not in ([], ["cmc"]):
        raise SystemExit("usage: python tests/peak_memory.py IDENTITIES[,...] METHOD[,...]")
    cases = [(int(n), m) for n in sys.argv[1].split(",") for m in sys.argv[2].split(",")]
    if len(cases) == 1:
        print(json.dumps(measure(*cases[0], cmc=len(sys.argv) == 4)))
    else:
        results = []
        for n, m in cases:
            line = subprocess.run([sys.executable, __file__, str(n), m, "cmc"], check=True,
                                  stdout=subprocess.PIPE, text=True).stdout
            print(line, end="", flush=True)
            results.append(json.loads(line))
        for row in slopes(results):
            print(json.dumps(row))
