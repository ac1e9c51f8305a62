"""Probe/gallery evaluation: CMC curves, repeated trials, and dimension sweeps.

Each trial draws its own identity split from ``base_seed + t``, trains the
requested method on the training identities (:func:`cv_for_trial` is the
CV step of both multi-kernel methods), and ranks every test probe against
the full gallery from the other camera; :func:`run_trials` and
:func:`dimension_sweep` share that one trial loop, ``_trials``. Probes are
ranked by :func:`kfmetric.metric.true_ranks`, which states the tie rule.
Only a hand-built plan can hold a probe whose identity is absent from
the gallery; :func:`score_plan` excludes it from accuracy with a warning.
Rank-K accuracies are averaged over trials at full precision.
"""

from __future__ import annotations

import csv
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from . import threads
from .config import RunConfig, _is_int
from .data import Dataset, SplitPlan, eligible_identities, make_split, open_output
from .errors import InputError, NumericError
from .kernels import MAX_RBF_WIDTH, KernelSpec, rms_width
from .kernels import squared_distances, width_grid
from .kfda import KfdaModel, train
from .metric import euclidean_score_matrix, embed_batch, score_matrix, true_ranks
from .mkl import FoldPlan, build_config as build_mkl_config, cv_kernel_accuracies


@dataclass(frozen=True)
class CmcReport:
    """Per-rank matching accuracy averaged over trials, from :func:`_report`.

    ``mean_accuracy`` (R,) is non-decreasing in rank; it and ``per_trial`` (trials, R) are
    read-only.
    """

    ranks: tuple[int, ...]
    mean_accuracy: np.ndarray
    per_trial: np.ndarray
    trials: int
    config_digest: str

    def rank_accuracy(self, k: int) -> float:
        if k not in self.ranks:
            raise InputError(f"rank {k} not in report (1..{self.ranks[-1]})")
        return float(self.mean_accuracy[self.ranks.index(k)])


def rbf_bank(ds: Dataset, train_idx, cfg: RunConfig) -> tuple[KernelSpec, ...]:
    """The run's cfg.q rbf kernels, with widths on a log grid around the training rms width.

    q = 1 gives the single kernel at the rms width itself. A grid width that
    leaves (0, MAX_RBF_WIDTH] raises NumericError: the data's scale, not a
    width the user gave, put it there.
    """
    base = rms_width(ds, train_idx)
    if cfg.q == 1:
        return (KernelSpec("rbf", base),)
    widths = width_grid(base, cfg.q, cfg.width_lo, cfg.width_hi)
    if not 0.0 < widths[0] <= widths[-1] <= MAX_RBF_WIDTH:
        raise NumericError(
            f"rbf bank widths {widths[0]:.4g}..{widths[-1]:.4g} (the rms pairwise distance "
            f"{base:.4g} times width_lo..width_hi) leave (0, {MAX_RBF_WIDTH:.4g}]"
        )
    return tuple(KernelSpec("rbf", w) for w in widths)


def fit_for_trial(ds: Dataset, plan: SplitPlan, cfg: RunConfig) -> KfdaModel | None:
    """Train cfg.method (a RunConfig-checked name) on one split; None for the euclidean baseline."""
    if cfg.method == "euclidean":
        return None
    if cfg.method == "kfda":
        width = rms_width(ds, ds.samples_of(plan.train_ids))
        return train(ds, plan, KernelSpec("rbf", width), cfg.eps, cfg.p)
    if cfg.q < 2:
        raise InputError(f"multi-kernel methods need q >= 2 kernels, got {cfg.q}")
    variant = "np" if cfg.method == "np-mfml" else "sm"
    mkl_cfg = build_mkl_config(variant, cv_for_trial(ds, plan, cfg), cfg.n_grid, cfg.tau_grid)
    return train(ds, plan, mkl_cfg, cfg.eps, cfg.p)


def cv_for_trial(ds: Dataset, plan: SplitPlan, cfg: RunConfig) -> FoldPlan:
    """The trial's CV step: its rbf bank scored on the split's training ids, seed and cameras."""
    bank = rbf_bank(ds, ds.samples_of(plan.train_ids), cfg)
    return cv_kernel_accuracies(ds, plan, bank, cfg.folds, cfg.eps)


def _trial_sets(ds: Dataset, plan: SplitPlan, cfg: RunConfig) -> tuple:
    """A plan's probe and gallery sample indices, then their identity codes; distractors go last."""
    probe_idx = ds.samples_of(plan.test_ids, plan.probe_camera)
    gallery_idx = ds.samples_of(plan.test_ids, plan.gallery_camera)
    if cfg.include_distractors:
        _, excluded = eligible_identities(ds, plan.probe_camera, plan.gallery_camera)
        gallery_idx += ds.samples_of(excluded, plan.gallery_camera)
    if not probe_idx or not gallery_idx:
        raise InputError("empty probe or gallery set for this split")
    return probe_idx, gallery_idx, ds.identity_codes[probe_idx], ds.identity_codes[gallery_idx]


def score_plan(ds: Dataset, model: KfdaModel | None, plan: SplitPlan, cfg: RunConfig):
    """Rank every probe of a plan's test set. Returns (true_ranks, gallery size)."""
    probe_idx, gallery_idx, probe_ids, gallery_ids = _trial_sets(ds, plan, cfg)
    if model is None:
        dists = euclidean_score_matrix(ds.features[probe_idx], ds.features[gallery_idx])
    else:
        dists = score_matrix(model, ds.features[probe_idx], ds.features[gallery_idx])
    ranks = true_ranks(dists, probe_ids, gallery_ids)
    found = ranks[ranks > 0]
    if found.size == 0:
        raise InputError("every probe's identity was absent from the gallery")
    if found.size < ranks.size:
        warnings.warn(
            f"excluded {ranks.size - found.size} probes without a gallery match", stacklevel=2
        )
    return found.tolist(), len(gallery_idx)


def _trials(ds: Dataset, cfg: RunConfig, score) -> list:
    """``score(plan, model)`` for each of cfg.trials seeded trials, in trial order.

    Trial t splits with seed cfg.base_seed + t and fits cfg.method (RunConfig has
    checked it and cfg.trials) by :func:`fit_for_trial`; an InputError or NumericError
    raised in trial t names it, and any other exception passes through as it is. With
    cfg.threads > 1 the trials run on a thread pool with no more workers than cfg.threads,
    the trials or the usable CPUs.
    """

    def one(t: int):
        try:
            plan = make_split(ds, cfg.base_seed + t, cfg.train_fraction)
            return score(plan, fit_for_trial(ds, plan, cfg))
        except (InputError, NumericError) as exc:
            raise type(exc)(f"trial {t}: {exc}") from exc

    workers = min(cfg.threads, cfg.trials, threads._cpus_usable())
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, range(cfg.trials)))
    return [one(t) for t in range(cfg.trials)]


def _report(outcomes, digest: str) -> CmcReport:
    """CMC report of scored trials, each (true ranks, gallery size), cut at the smallest gallery."""
    R = min(size for _, size in outcomes)
    per_trial = np.stack([cmc_from_ranks(ranks, R) for ranks, _ in outcomes])
    mean = per_trial.mean(axis=0)
    per_trial.setflags(write=False)
    mean.setflags(write=False)
    return CmcReport(tuple(range(1, R + 1)), mean, per_trial, len(outcomes), digest)


def evaluate_model(ds: Dataset, model: KfdaModel, plan: SplitPlan, cfg: RunConfig) -> CmcReport:
    """Single-trial CMC report for an already-trained model on one plan."""
    return _report([score_plan(ds, model, plan, cfg)], cfg.digest())


def run_trials(
    ds: Dataset, method: str, trials: int, base_seed: int, cfg: RunConfig
) -> CmcReport:
    """Average the CMC curves of seeded split/train/rank trials; the arguments override cfg's."""
    cfg = dc_replace(cfg, method=method, trials=trials, base_seed=base_seed)
    outcomes = _trials(ds, cfg, lambda plan, model: score_plan(ds, model, plan, cfg))
    return _report(outcomes, cfg.digest())


def cmc_from_ranks(true_ranks, R: int) -> np.ndarray:
    """CMC vector straight from 1-based true ranks."""
    ranks = np.asarray(true_ranks)
    counts = np.bincount(ranks, minlength=R + 1)[1 : R + 1]
    return np.cumsum(counts) / len(ranks)


def dimension_sweep(
    ds: Dataset, method: str, p_values, trials: int, base_seed: int, cfg: RunConfig
) -> list[tuple[int, float]]:
    """Mean rank-1 accuracy with the model truncated to each requested p.

    The model is trained once per trial with all c-1 discriminants; a run at
    p keeps the p leading columns, which matches training at that p up to
    rounding because leading eigenpairs nest.
    """
    if method == "euclidean":
        raise InputError("dimension sweep needs a learned model, not the raw baseline")
    p_values = list(p_values)
    if not p_values:
        raise InputError("no p values requested")
    if not all(_is_int(p) for p in p_values):
        raise InputError(f"every p must be an integer, got {p_values}")
    p_values = [int(p) for p in p_values]
    if any(p < 1 for p in p_values):
        raise InputError("every p must be >= 1")
    if len(set(p_values)) != len(p_values):
        raise InputError(f"p values must be distinct, got {p_values}")
    cfg = dc_replace(cfg, method=method, trials=trials, base_seed=base_seed, p=None)

    def rank1(plan: SplitPlan, model: KfdaModel) -> list[float]:
        if max(p_values) > model.p:
            raise InputError(f"p={max(p_values)} out of range, training split has c-1={model.p}")
        # make_split's test identities have gallery samples: every probe has a match
        probe_idx, gallery_idx, probe_ids, gallery_ids = _trial_sets(ds, plan, cfg)
        emb_probe = embed_batch(model, ds.features[probe_idx])
        emb_gal = embed_batch(model, ds.features[gallery_idx])
        ranks = (
            true_ranks(squared_distances(emb_probe[:, :p], emb_gal[:, :p]), probe_ids, gallery_ids)
            for p in p_values
        )
        return [float(np.mean(r == 1)) for r in ranks]

    sums = [0.0] * len(p_values)
    # summed in trial order, so the means do not depend on cfg.threads
    for row in _trials(ds, cfg, rank1):
        sums = [s + v for s, v in zip(sums, row)]
    return [(p, s / trials) for p, s in zip(p_values, sums)]


def write_cmc_csv(report: CmcReport, path) -> None:
    """CMC table: rank, mean accuracy, then one column per trial."""
    with open_output(path, "CMC table") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["rank", "mean_accuracy"] + [f"trial_{t + 1}" for t in range(report.trials)]
        )
        for k, rank in enumerate(report.ranks):
            writer.writerow(
                [rank, repr(float(report.mean_accuracy[k]))]
                + [repr(float(v)) for v in report.per_trial[:, k]]
            )


def write_sweep_csv(rows, path) -> None:
    """Sweep table: subspace dimension and its mean rank-1 accuracy."""
    with open_output(path, "sweep table") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "rank1_mean"])
        for p, rank1 in rows:
            writer.writerow([p, repr(float(rank1))])
