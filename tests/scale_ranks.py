"""Per-probe rank digests at the benchmark's scale; prints them as one JSON object.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/scale_ranks.py WORKDIR [--one-cpu]

Each rank digest is the sha256 of one ``score_plan`` outcome, written
``"<gallery size>:<rank>,<rank>,..."`` as for the 80-identity digests of
test_evaluation.py:

* ``kfda_large`` -- one kfda trial at seed 0 on the 1200-identity fixture
  (dim 20, noise 0.45, view offset 30, seed 0);
* ``sm_query`` -- one ``evaluate_model`` over the whole held-out set of an
  sm-mfml model shaped like the benchmark's: 300 training identities of the
  1200-identity noise-0.6 fixture, the pair (18, 19) of the 20-kernel bank
  and tau 0.01, saved to WORKDIR/model.json and served from it.

``sm_query_gallery`` is the sha256 of the bytes of that model's embedding
of the 900-row held-out gallery, one ``embed_batch`` call: with one BLAS
thread and two usable CPUs its kernel blocks and products are built on a
helper thread too (kfmetric.threads). ``--one-cpu`` pins this process to
its first usable CPU before numpy loads, so no helper runs.

The BLAS thread count is read once, when numpy loads, so the test runs this
in a fresh interpreter per setting.
"""

import os
import sys

if "--one-cpu" in sys.argv[1:]:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

from kfmetric import evaluation  # noqa: E402
from kfmetric.config import RunConfig  # noqa: E402
from kfmetric.data import make_split  # noqa: E402
from kfmetric.kernels import KernelSpec, rms_width, width_grid  # noqa: E402
from kfmetric.kfda import load_model, save_model, train  # noqa: E402
from kfmetric.metric import embed_batch  # noqa: E402
from kfmetric.mkl import MklConfig  # noqa: E402
from kfmetric.synthetic import make_synthetic  # noqa: E402


def main(workdir: Path) -> dict:
    seen = []
    score_plan = evaluation.score_plan

    def recorded(*args, **kwargs):
        seen.append(score_plan(*args, **kwargs))
        return seen[-1]

    def digest() -> str:
        [(ranks, gallery)] = seen
        seen.clear()
        return hashlib.sha256((f"{gallery}:" + ",".join(map(str, ranks))).encode()).hexdigest()

    evaluation.score_plan = recorded
    out = {}
    ds = make_synthetic(1200, 2, 20, noise=0.45, view_offset=30.0, seed=0)
    evaluation.run_trials(ds, "kfda", 1, 0, RunConfig())
    out["kfda_large"] = digest()

    ds = make_synthetic(1200, 2, 20, noise=0.6, view_offset=30.0, seed=0)
    plan = make_split(ds, 0, 0.25)
    widths = width_grid(rms_width(ds, sorted(ds.samples_of(plan.train_ids))), 20)
    kernel = MklConfig(
        variant="sm", bank_specs=tuple(KernelSpec("rbf", w) for w in widths),
        pair=(18, 19), tau=0.01,
    )
    path = workdir / "model.json"
    save_model(train(ds, plan, kernel), path)
    model, _ = load_model(path)
    evaluation.evaluate_model(ds, model, plan, RunConfig(train_fraction=0.25))
    out["sm_query"] = digest()
    gallery = ds.features[ds.samples_of(plan.test_ids, plan.gallery_camera)]
    out["sm_query_gallery"] = hashlib.sha256(embed_batch(model, gallery).tobytes()).hexdigest()
    return out


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--one-cpu", action="store_true",
                        help="run on the first usable CPU only (pinned before numpy loads)")
    args = parser.parse_args()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        print(json.dumps(main(args.workdir)))
