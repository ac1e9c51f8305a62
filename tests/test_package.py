import ast
import contextlib
import functools
import inspect
import sys
import threading
from pathlib import Path

import numpy as np

import kfmetric
from kfmetric import data, evaluation, kernels, kfda, metric, mkl, threads
from kfmetric.synthetic import make_synthetic

from test_threads import use_mode

# each module imports only modules before it; the package root and __main__ are entry points
LAYERS = ("errors", "threads", "config", "data", "synthetic", "kernels", "kfda", "metric",
          "mkl", "evaluation", "cli", "__main__", "__init__")


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
    # the set-ups build these run configs, which RunConfig checks when built
    assert kfmetric.RunConfig(threads=1).threads == 1
    assert kfmetric.RunConfig(threads=1, train_fraction=0.25).train_fraction == 0.25


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


# the layers whose public functions perfbench's tracer spans; it keeps one stack
# of open spans, so it reads every traced call as made on the main thread
TRACED = (data, kernels, kfda, metric, mkl, evaluation)


def _record_public_calls(monkeypatch, calls):
    """Append (name, on the main thread) to ``calls`` at each call of a public function of
    TRACED, patched at every import site in the package, as perfbench patches them."""
    def recorded(name, fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            calls.append((name, threading.current_thread() is threading.main_thread()))
            return fn(*args, **kwargs)

        return call

    public = {
        id(fn): (fn, recorded(f"{module.__name__}.{attr}", fn))
        for module in TRACED
        for attr, fn in vars(module).items()
        if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__
    }
    for name, module in list(sys.modules.items()):
        if name == "kfmetric" or name.startswith("kfmetric."):
            for attr, value in list(vars(module).items()):
                hit = public.get(id(value))
                if hit is not None and hit[0] is value:
                    monkeypatch.setattr(module, attr, hit[1])


def test_no_public_function_runs_on_a_helper(monkeypatch):
    calls, granted, helper = [], set(), threads.helper

    @contextlib.contextmanager
    def watched(name, macs=None):
        with helper(name, macs) as start:
            if start is not None:
                granted.add(name)
            yield start

    monkeypatch.setattr(threads, "helper", watched)
    _record_public_calls(monkeypatch, calls)
    use_mode(monkeypatch, "helper")
    cfg = kfmetric.RunConfig(threads=1)
    ds = make_synthetic(48, 2, 12, noise=0.3, view_offset=25.0, seed=4)
    for method in ("np-mfml", "sm-mfml"):  # each CV stack's eigensolve runs on the helper
        evaluation.run_trials(ds, method, 1, 0, cfg)
    # a 600-sample Fisher solve splits its triangular solves
    big = make_synthetic(300, 2, 20, noise=0.6, view_offset=30.0, seed=300)
    rows = range(big.n_samples)
    K = kernels.gram(kernels.KernelSpec("rbf", kernels.rms_width(big, rows)), big.features)
    kfda.solve_kfda(kfda.build_scatter(K, data.index_classes(big, rows)), 299)
    # an sm model's embedding builds its kernel blocks and products on the helper
    monkeypatch.setattr(threads, "HELPER_MACS", 0)
    plan = data.make_split(ds, 0, 0.5)
    bank = tuple(kernels.KernelSpec("rbf", w) for w in (2.0, 8.0))
    model = kfda.train(ds, plan, mkl.MklConfig("sm", bank, pair=(1, 0), tau=0.5))
    metric.embed_batch(model, ds.features)
    assert granted == {"kfmetric-eigh", "kfmetric-trsm", "kfmetric-embed"}
    names = {name for name, _ in calls}
    assert {"kfmetric.evaluation.run_trials", "kfmetric.kfda.solve_kfda",
            "kfmetric.kernels.rbf_blocks", "kfmetric.metric.embed_batch"} <= names
    assert [name for name, main in calls if not main] == []
