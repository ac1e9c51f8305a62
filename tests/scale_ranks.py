"""Per-probe rank digests at the benchmark's scale; prints them as one JSON object.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/scale_ranks.py WORKDIR

Each digest is the sha256 of one ``score_plan`` outcome, written
``"<gallery size>:<rank>,<rank>,..."`` as for the 80-identity digests of
test_evaluation.py:

* ``kfda_large`` -- one kfda trial at seed 0 on the 1200-identity fixture
  (dim 20, noise 0.45, view offset 30, seed 0);
* ``sm_query`` -- one ``evaluate_model`` over the whole held-out set of an
  sm-mfml model shaped like the benchmark's: 300 training identities of the
  1200-identity noise-0.6 fixture, the pair (18, 19) of the 20-kernel bank
  and tau 0.01, saved to WORKDIR/model.json and served from it.

The BLAS thread count is read once, when numpy loads, so the test runs this
in a fresh interpreter per setting.
"""

import hashlib
import json
import sys
import warnings
from pathlib import Path

from kfmetric import evaluation
from kfmetric.config import RunConfig
from kfmetric.data import make_split
from kfmetric.kernels import KernelSpec, rms_width, width_grid
from kfmetric.kfda import load_model, save_model, train
from kfmetric.mkl import MklConfig
from kfmetric.synthetic import make_synthetic


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
    return out


if __name__ == "__main__":
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        print(json.dumps(main(Path(sys.argv[1]))))
