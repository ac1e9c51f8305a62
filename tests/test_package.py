import inspect

import numpy as np

import kfmetric
from kfmetric import data, evaluation, kernels, kfda, metric


def test_every_export_resolves():
    missing = [name for name in kfmetric.__all__ if not hasattr(kfmetric, name)]
    assert missing == []
    assert len(set(kfmetric.__all__)) == len(kfmetric.__all__)


def test_parameter_names_read_by_perfbench(tmp_path):
    """perfbench/run.py binds these parameters by name to count work and read ranks,
    calls these functions by attribute, and compares these fields of a loaded model."""
    def params(fn):
        return set(inspect.signature(fn).parameters)

    assert "sc" in params(kfda.solve_kfda)
    ds = data.Dataset(np.arange(8.0).reshape(4, 2), ("a", "a", "b", "b"), (0, 1, 0, 1))
    K = kernels.gram(kernels.KernelSpec("linear"), ds.features)
    idx = data.index_classes(ds, range(4))
    sc = kfda.build_scatter(K, idx)
    assert sc.P.shape == (4, 4)
    # cross-validation solves a fold's candidates as one stacked pair
    stacked = kfda.build_scatter(np.stack([K, 2.0 * K, 3.0 * K]), idx)
    assert stacked.P.shape == (3, 4, 4) and stacked.n_classes == 2
    assert np.array_equal(stacked.P[0], sc.P)
    assert {"rows", "cols"} <= params(kernels.gram)
    assert "Y" in params(metric.embed_batch)
    assert {"ds", "model", "plan", "cfg"} <= params(evaluation.score_plan)
    for fn in (metric.score_matrix, metric.euclidean_score_matrix, evaluation.evaluate_model):
        assert callable(fn)
    plan = data.SplitPlan(frozenset({"a", "b"}), frozenset(), 0, 0, 1)
    path = tmp_path / "model.json"
    kfda.save_model(kfda.train(ds, plan, kernels.KernelSpec("rbf", 3.0)), path)
    model, _ = kfda.load_model(path)
    for name in ("A", "eigvals", "train_basis", "kernel_config"):
        assert getattr(model, name) is not None
