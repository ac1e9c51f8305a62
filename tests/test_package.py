import ast
import inspect
from pathlib import Path

import numpy as np

import kfmetric
from kfmetric import data, evaluation, kernels, kfda, metric, mkl

# each module imports only modules before it; the package root and __main__ are entry points
LAYERS = ("errors", "config", "data", "synthetic", "kernels", "kfda", "metric", "mkl",
          "evaluation", "cli", "__main__", "__init__")


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
    assert "folds" in params(mkl.cv_kernel_accuracies)  # the planned folds of a CV span
    # the benchmark splits each trial with make_split(ds, seed, fraction), positionally
    assert list(inspect.signature(data.make_split).parameters)[:3] == [
        "ds", "trial_seed", "train_fraction"
    ]
    # the benchmark runs run_trials(ds, method, 1, seed, cfg) and the acceptance suite
    # dimension_sweep(ds, method, p_values, trials, seed, cfg), both positionally
    assert list(inspect.signature(evaluation.run_trials).parameters) == [
        "ds", "method", "trials", "base_seed", "cfg"
    ]
    assert list(inspect.signature(evaluation.dimension_sweep).parameters) == [
        "ds", "method", "p_values", "trials", "base_seed", "cfg"
    ]
    # its rank capture reads cfg.include_distractors from every score_plan call
    assert {"ds", "model", "plan", "cfg"} <= params(evaluation.score_plan)
    for fn in (metric.score_matrix, metric.euclidean_score_matrix, evaluation.evaluate_model):
        assert callable(fn)
    plan = data.SplitPlan(frozenset({"a", "b"}), frozenset(), 0, 0, 1)
    path = tmp_path / "model.json"
    kfda.save_model(kfda.train(ds, plan, kernels.KernelSpec("rbf", 3.0)), path)
    model, _ = kfda.load_model(path)
    for name in ("A", "eigvals", "train_basis", "kernel_config"):
        assert getattr(model, name) is not None
    # the sm_query set-up builds its kernel from the package root by keyword
    sm = kfmetric.MklConfig(
        variant="sm", bank_specs=(kernels.KernelSpec("rbf", 2.0), kernels.KernelSpec("rbf", 8.0)),
        pair=(1, 0), tau=0.5,
    )
    kfda.save_model(kfda.train(ds, plan, sm), path)
    assert kfda.load_model(path)[0].kernel_config == sm


def _package_imports(tree):
    """(import node, the kfmetric module it reads) for every package import in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            path = node.module or ""
            if not node.level:
                if path.split(".")[0] != "kfmetric":
                    continue
                path = path[len("kfmetric.") :]
            names = [path] if path else [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name[len("kfmetric.") :] for a in node.names
                     if a.name.split(".")[0] == "kfmetric"]
        else:
            continue
        for name in names:
            first = name.split(".")[0]
            yield node, first if first in LAYERS else "__init__"


def test_imports_follow_the_layer_order():
    """Every package import sits at module level and names a module earlier in LAYERS."""
    src = Path(kfmetric.__file__).parent
    assert sorted(LAYERS) == sorted(f.stem for f in src.glob("*.py"))
    wrong = []
    for name in LAYERS:
        tree = ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))
        top = set(map(id, tree.body))
        for node, target in _package_imports(tree):
            if id(node) not in top:
                wrong.append(f"{name}:{node.lineno} imports {target} inside a block")
            if LAYERS.index(target) >= LAYERS.index(name):
                wrong.append(f"{name}:{node.lineno} imports {target}, which is not below it")
    assert wrong == []
