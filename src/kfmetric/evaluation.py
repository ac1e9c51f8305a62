"""Probe/gallery ranking, CMC curves, repeated trials, and dimension sweeps.

Each trial draws its own identity split from ``base_seed + t``, trains the
requested method on the training identities, and ranks every test probe
against the full gallery from the other camera. Ties in matching score are
broken by ascending gallery index: a true match g* with score s* ranks
1 + #{g: s_g < s*} + #{g < g*: s_g = s*}, and a probe ranks at its
best-placed match (see :func:`true_ranks`, the one ranking routine). Probes
whose identity is absent from the gallery are excluded from accuracy with a
warning (distractor galleries make this legitimate). Rank-K accuracies are
averaged over trials at full precision.
"""

from __future__ import annotations

import csv
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .config import METHODS, RunConfig
from .data import Dataset, SplitPlan, eligible_identities, make_split
from .errors import InputError, NumericError
from .kernels import KernelSpec, rms_width, squared_distances, width_grid
from .kfda import KfdaModel, train
from .metric import euclidean_score_matrix, embed_batch, score_matrix
from .mkl import build_config as build_mkl_config
from .mkl import _is_int, cv_kernel_accuracies


@dataclass(frozen=True)
class CmcReport:
    """Per-rank matching accuracy averaged over trials."""

    ranks: tuple[int, ...]
    mean_accuracy: np.ndarray
    per_trial: np.ndarray
    trials: int
    config_digest: str

    def __post_init__(self):
        per_trial = np.asarray(self.per_trial, dtype=np.float64)
        mean = np.asarray(self.mean_accuracy, dtype=np.float64)
        if per_trial.shape != (self.trials, len(self.ranks)):
            raise NumericError(
                f"per_trial shape {per_trial.shape} != (trials, ranks) "
                f"({self.trials}, {len(self.ranks)})"
            )
        if mean.shape != (len(self.ranks),):
            raise NumericError("mean_accuracy length must match ranks")
        if np.any(np.diff(mean) < 0):
            raise NumericError("mean accuracy must be non-decreasing in rank")
        per_trial.setflags(write=False)
        mean.setflags(write=False)
        object.__setattr__(self, "per_trial", per_trial)
        object.__setattr__(self, "mean_accuracy", mean)

    def rank_accuracy(self, k: int) -> float:
        if k not in self.ranks:
            raise InputError(f"rank {k} not in report (1..{self.ranks[-1]})")
        return float(self.mean_accuracy[self.ranks.index(k)])


def true_ranks(dists, probe_ids, gallery_ids) -> np.ndarray:
    """1-based rank of each probe's true match in its row of ``dists``; 0 if absent.

    Row u of the (probes, gallery) matrix ``dists`` holds probe u's scores,
    lower meaning closer. The gallery is ordered by ascending score with ties
    broken by ascending gallery index, so a true match g* with score s* lands
    at 1 + #{g: s_g < s*} + #{g < g*: s_g = s*}; the best-placed match
    counts. A non-finite score raises NumericError. Pass the identities as
    arrays when ranking many small sets, so they are not converted on every
    call.
    """
    dists = np.asarray(dists, dtype=np.float64)
    probe_ids = np.asarray(probe_ids)
    gallery_ids = np.asarray(gallery_ids)
    m, g = len(probe_ids), len(gallery_ids)
    if dists.shape != (m, g):
        raise InputError(f"need a {m} x {g} score matrix, got shape {dists.shape}")
    if g == 0:
        raise InputError("empty gallery")
    if not np.isfinite(dists).all():
        raise NumericError("non-finite matching score")
    # first minimum over the matches: the lowest-scored, then lowest-index, match;
    # scores are finite, so a probe's masked minimum is inf exactly when it has no match
    masked = np.where(probe_ids[:, None] == gallery_ids, dists, np.inf)
    best = masked.argmin(axis=1)
    s_best = masked[np.arange(m), best][:, None]
    del masked  # a (probes, gallery) float array, freed before the counting below
    ahead = dists < s_best
    ahead |= (dists == s_best) & (np.arange(g) < best[:, None])
    ranks = np.add.reduce(ahead, axis=1) + 1
    ranks[s_best[:, 0] == np.inf] = 0
    return ranks


def rbf_bank(ds: Dataset, train_idx, cfg: RunConfig) -> tuple[KernelSpec, ...]:
    """The run's cfg.q rbf kernels, with widths on a log grid around the training rms width.

    q = 1 gives the single kernel at the rms width itself.
    """
    base = rms_width(ds, train_idx)
    if cfg.q == 1:
        return (KernelSpec("rbf", base),)
    return tuple(KernelSpec("rbf", w) for w in width_grid(base, cfg.q, cfg.width_lo, cfg.width_hi))


def fit_for_trial(ds: Dataset, plan: SplitPlan, method: str, cfg: RunConfig) -> KfdaModel | None:
    """Train the model one trial needs; None for the raw-feature baseline."""
    if method == "euclidean":
        return None
    train_idx = sorted(ds.samples_of(plan.train_ids))
    if method == "kfda":
        return train(ds, plan, KernelSpec("rbf", rms_width(ds, train_idx)), cfg.eps, cfg.p)
    if method not in ("np-mfml", "sm-mfml"):
        raise InputError(f"unknown method {method!r}")
    if cfg.q < 2:
        raise InputError(f"multi-kernel methods need q >= 2 kernels, got {cfg.q}")
    bank = rbf_bank(ds, train_idx, cfg)
    acc = cv_kernel_accuracies(
        ds, plan.train_ids, bank, cfg.folds, plan.trial_seed, cfg.eps,
        plan.probe_camera, plan.gallery_camera,
    )
    variant = "np" if method == "np-mfml" else "sm"
    mkl_cfg = build_mkl_config(variant, acc, cfg.effective_n_grid(), cfg.tau_grid)
    return train(ds, plan, mkl_cfg, cfg.eps, cfg.p)


def _trial_sets(ds: Dataset, plan: SplitPlan, cfg: RunConfig) -> tuple[list[int], list[int]]:
    """Probe and gallery sample indices for a plan; distractors go last."""
    probe_idx = sorted(ds.samples_of(plan.test_ids, plan.probe_camera))
    gallery_idx = sorted(ds.samples_of(plan.test_ids, plan.gallery_camera))
    if cfg.include_distractors:
        _, excluded = eligible_identities(ds, plan.probe_camera, plan.gallery_camera)
        gallery_idx += sorted(ds.samples_of(excluded, plan.gallery_camera))
    if not probe_idx or not gallery_idx:
        raise InputError("empty probe or gallery set for this split")
    return probe_idx, gallery_idx


def score_plan(ds: Dataset, model: KfdaModel | None, plan: SplitPlan, cfg: RunConfig):
    """Rank every probe of a plan's test set. Returns (true_ranks, gallery size)."""
    probe_idx, gallery_idx = _trial_sets(ds, plan, cfg)
    if model is None:
        dists = euclidean_score_matrix(ds.features[probe_idx], ds.features[gallery_idx])
    else:
        dists = score_matrix(model, ds.features[probe_idx], ds.features[gallery_idx])
    ranks = true_ranks(
        dists,
        [ds.identities[i] for i in probe_idx],
        [ds.identities[i] for i in gallery_idx],
    )
    found = ranks[ranks > 0]
    if found.size == 0:
        raise InputError("every probe's identity was absent from the gallery")
    if found.size < ranks.size:
        warnings.warn(
            f"excluded {ranks.size - found.size} probes without a gallery match", stacklevel=2
        )
    return found.tolist(), len(gallery_idx)


def _run_single_trial(ds, method, seed, cfg) -> tuple[list[int], int]:
    """One trial: split, fit, rank every probe. Returns (true_ranks, gallery size)."""
    plan = make_split(ds, seed, cfg.train_fraction)
    model = fit_for_trial(ds, plan, method, cfg)
    return score_plan(ds, model, plan, cfg)


def evaluate_model(ds: Dataset, model: KfdaModel, plan: SplitPlan, cfg: RunConfig) -> CmcReport:
    """Single-trial CMC report for an already-trained model on one plan."""
    true_ranks, gallery_size = score_plan(ds, model, plan, cfg)
    per_trial = cmc_from_ranks(true_ranks, gallery_size)[None, :]
    return CmcReport(
        ranks=tuple(range(1, gallery_size + 1)),
        mean_accuracy=per_trial[0],
        per_trial=per_trial,
        trials=1,
        config_digest=cfg.digest(),
    )


def run_trials(
    ds: Dataset, method: str, trials: int, base_seed: int, cfg: RunConfig
) -> CmcReport:
    """Repeat split/train/rank over seeded trials and average the CMC curves."""
    if method not in METHODS:
        raise InputError(f"method must be one of {METHODS}, got {method!r}")
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")

    def one(t: int):
        try:
            return _run_single_trial(ds, method, base_seed + t, cfg)
        except Exception as exc:
            try:
                wrapped = type(exc)(f"trial {t}: {exc}")
            except Exception:
                wrapped = NumericError(f"trial {t}: {exc}")
            raise wrapped from exc

    if cfg.threads > 1 and trials > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            outcomes = list(pool.map(one, range(trials)))
    else:
        outcomes = [one(t) for t in range(trials)]

    R = min(size for _, size in outcomes)
    per_trial = np.stack(
        [cmc_from_ranks(ranks, R) for ranks, _ in outcomes]
    )
    effective = dc_replace(cfg, method=method, trials=trials, base_seed=base_seed)
    return CmcReport(
        ranks=tuple(range(1, R + 1)),
        mean_accuracy=per_trial.mean(axis=0),
        per_trial=per_trial,
        trials=trials,
        config_digest=effective.digest(),
    )


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
    p keeps the p leading columns, which matches training at that p exactly
    because leading eigenpairs nest.
    """
    if method == "euclidean":
        raise InputError("dimension sweep needs a learned model, not the raw baseline")
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
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
    sums = {p: 0.0 for p in p_values}
    for t in range(trials):
        plan = make_split(ds, base_seed + t, cfg.train_fraction)
        c = len(plan.train_ids)
        if max(p_values) > c - 1:
            raise InputError(
                f"trial {t}: p={max(p_values)} out of range, training split has c-1={c - 1}"
            )
        model = fit_for_trial(ds, plan, method, dc_replace(cfg, p=None))
        probe_idx, gallery_idx = _trial_sets(ds, plan, cfg)
        emb_probe = embed_batch(model, ds.features[probe_idx])
        emb_gal = embed_batch(model, ds.features[gallery_idx])
        probe_ids = np.array([ds.identities[i] for i in probe_idx])
        gal_ids = np.array([ds.identities[i] for i in gallery_idx])
        ranks = [
            true_ranks(squared_distances(emb_probe[:, :p], emb_gal[:, :p]), probe_ids, gal_ids)
            for p in p_values
        ]
        valid = ranks[0] > 0
        if not valid.any():
            raise InputError(f"trial {t}: every probe's identity absent from the gallery")
        if not valid.all():
            warnings.warn(
                f"trial {t}: excluded {int((~valid).sum())} probes without a gallery match",
                stacklevel=2,
            )
        for p, r in zip(p_values, ranks):
            sums[p] += float(np.mean(r[valid] == 1))
    return [(p, sums[p] / trials) for p in p_values]


def write_cmc_csv(report: CmcReport, path) -> None:
    """CMC table: rank, mean accuracy, then one column per trial."""
    with open(path, "w", newline="") as fh:
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "rank1_mean"])
        for p, rank1 in rows:
            writer.writerow([p, repr(float(rank1))])
