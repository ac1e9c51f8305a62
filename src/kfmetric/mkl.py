"""Learning the multi-kernel configuration from per-kernel CV accuracies.

A trial's training identities (not samples) are partitioned into folds, so each
held-out fold contains classes unseen by that fold's model, mirroring the probe/gallery
protocol: CV reads only the training ids, seed and cameras of the trial's
:class:`~kfmetric.data.SplitPlan`. Each kernel's accuracy pi_r is its mean held-out rank-1 score.
Every cross-validated choice of a trial (pi_r, then N or tau) is scored on
one :class:`FoldPlan`, which :func:`cv_kernel_accuracies` builds once with its
pool Grams and returns as the trial's CV result: the plan scores the bank when
it is built and holds the persisted :class:`~kfmetric.kernels.KernelAccuracies`.
Each fold's rows are positions in the pool. One loop over the folds
scores the candidate configurations of a fold in stacks: one scatter, one
Fisher-solve call, one distance and one :func:`~kfmetric.metric.true_ranks`
call per stack, and one stack per fold unless the fold is large.
:func:`build_config` is the one N or tau search.

Each learned combination is a :class:`~kfmetric.kernels.MklConfig`:

* truncated proportional weights over the N best kernels, with the
  (N+1)-th best accuracy as the threshold (:func:`np_weights`);
* squared-matrix fusion of the best two kernels (:func:`select_sm_pair`)
  with a cross-validated scale tau on the squared-difference term.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TAU_GRID, default_n_grid
from .data import ClassIndex, Dataset, SplitPlan, index_classes, open_output
from .errors import InputError
from .kernels import KernelAccuracies, MklConfig, grams, squared_distances
from .kfda import build_scatter, solve_kfda
from .metric import true_ranks


def _ranked_indices(pis) -> list[int]:
    """Kernel indices by descending accuracy; ties keep ascending index order."""
    return sorted(range(len(pis)), key=lambda t: pis[t], reverse=True)


def np_weights(pis, N: int) -> list:
    """Truncated proportional weights over the N best kernels by accuracy ``pis``.

    The threshold is the (N+1)-th best accuracy; kernels outside the top N
    get weight zero. A tie between the N-th and (N+1)-th accuracies makes
    the rule degenerate, in which case the N selected kernels get uniform
    weights (reported via a warning for N > 1; N = 1 gives the top kernel
    weight 1 either way). Arithmetic stays in the input number
    type, so Fraction accuracies yield exact rational weights.
    """
    weights, fallback = _np_weights(pis, N)
    if fallback:
        _warn_uniform(fallback)
    return weights


def _warn_uniform(reason: str) -> None:
    """Report uniform np weights at the line that called the caller of this function."""
    warnings.warn(
        f"{reason}; falling back to uniform weights over the selected kernels", stacklevel=3
    )


def _np_weights(pis, N: int) -> tuple[list, str | None]:
    """:func:`np_weights` without its warning: the weights, and why they are uniform (or None)."""
    pis = list(pis)
    q = len(pis)
    if not 1 <= N < q:
        raise InputError(f"N must be in 1..q-1 = 1..{q - 1}, got {N}")
    order = _ranked_indices(pis)
    top = order[:N]
    threshold = pis[order[N]]
    weights = [0 * pis[0]] * q

    def uniform(reason):
        out = list(weights)
        for t in top:
            out[t] = 1 / N
        return out, reason

    if pis[order[N - 1]] == threshold:
        return uniform(
            f"accuracy tie at the top-{N} boundary (pi = {float(threshold)})" if N > 1 else None
        )
    total = sum(pis[t] - threshold for t in top)
    for t in top:
        weights[t] = (pis[t] - threshold) / total
    if any(weights[t] == 0 for t in top):
        # a selected margin underflowed to zero weight in float division
        return uniform("selected kernel weight underflowed to zero")
    return weights, None


def select_sm_pair(pis) -> tuple[int, int]:
    """Indices of the two best-performing kernels (stable on ties)."""
    if len(pis) < 2:
        raise InputError("need at least 2 kernels to pick a pair")
    order = _ranked_indices(pis)
    return order[0], order[1]


@dataclass(frozen=True)
class _Fold:
    number: int  # position among the planned folds, skipped ones included
    idx: ClassIndex  # classes of the fold's training samples, in row order
    rows: np.ndarray  # pool positions of the training, then probe, then gallery samples
    bounds: tuple[int, int]  # where the probe and the gallery rows start in ``rows``
    probe_ids: np.ndarray  # identity codes, built once so ranking does not convert them
    gallery_ids: np.ndarray

    def cut(self, grams: dict) -> tuple:
        """Spec-keyed pool Grams' training, probe and gallery rows over the training columns.

        One take per Gram, through one flat index built for the call; each
        Gram's three blocks are read-only row slices of its cut. Returns the
        training, probe and gallery blocks as three dicts keyed by spec.
        """
        a, b = self.bounds
        flat = self.rows[:, None] * next(iter(grams.values())).shape[1] + self.rows[:a]
        cuts = {s: K.take(flat) for s, K in grams.items()}
        for B in cuts.values():
            B.setflags(write=False)
        return tuple({s: B[i:j] for s, B in cuts.items()} for i, j in ((0, a), (a, b), (b, None)))


def _make_folds(ds: Dataset, plan: SplitPlan, folds: int):
    """The CV pool's sample indices and the folds that are used, each in pool positions.

    The pool is every sample of ``plan.train_ids`` in dataset order, and
    ``plan.trial_seed`` permutes those identities into folds. A fold's
    training, probe and gallery rows are ascending pool positions, picked by
    masks over the pool's fold and camera arrays (the plan's cameras).
    """
    ids = sorted(plan.train_ids)
    if folds < 2:
        raise InputError(f"need at least 2 folds, got {folds}")
    if len(ids) < folds:
        raise InputError(f"need at least {folds} identities for {folds} folds, got {len(ids)}")
    groups = np.array_split(np.random.default_rng(plan.trial_seed).permutation(len(ids)), folds)
    fold_of = {ids[k]: f for f, held in enumerate(groups) for k in held}
    pool_idx = np.array(ds.samples_of(ids), dtype=np.intp)
    row_fold = np.array([fold_of[ds.identities[i]] for i in pool_idx])
    cameras = np.array(ds.cameras)[pool_idx]
    codes = ds.identity_codes[pool_idx]
    built = []
    # a skip warning points at the caller of cv_kernel_accuracies
    for f, held in enumerate(groups):
        if len(held) < 2:
            warnings.warn(
                f"fold {f} holds out {len(held)} identity; rank-1 is degenerate, skipping",
                stacklevel=3,
            )
            continue
        if len(ids) - len(held) < 2:
            warnings.warn(f"fold {f} leaves fewer than 2 training classes, skipping", stacklevel=3)
            continue
        in_fold = row_fold == f
        probe = np.flatnonzero(in_fold & (cameras == plan.probe_camera))
        galry = np.flatnonzero(in_fold & (cameras == plan.gallery_camera))
        if not probe.size or not galry.size:
            warnings.warn(f"fold {f} has an empty probe or gallery set, skipping", stacklevel=3)
            continue
        train = np.flatnonzero(~in_fold)
        built.append(
            _Fold(
                number=f,
                idx=index_classes(ds, pool_idx[train].tolist()),
                rows=np.concatenate([train, probe, galry]),
                bounds=(train.size, train.size + probe.size),
                probe_ids=codes[probe],
                gallery_ids=codes[galry],
            )
        )
    if not built:
        raise InputError("every cross-validation fold was skipped")
    return pool_idx, built


# the most fused training Grams (C n^2 float64) one stacked scatter and solve
# call takes: all 20 bank kernels of an n = 72 fold (0.8 MB) share one call,
# while an n = 284 fold solves one config per call: a 20-config stack there
# (13 MB per n x n stack, several held at once) ran slower than single calls
_STACK_BYTES = 1 << 20


class FoldPlan:
    """One trial's CV result: its used folds, eps, the bank, its pool Grams and their scores.

    ``pool`` holds each distinct bank kernel's Gram over the CV pool, all
    computed from one distance matrix, so every stage of the trial (pi_r,
    then N or tau) scores its candidates on the same folds without
    recomputing a pool Gram: every candidate fuses bank kernels. The bank is
    scored when the plan is built: ``bank_rank1`` is its (q, folds) rank-1
    array, NaN on skipped folds, and ``accuracies`` its mean per kernel.
    """

    def __init__(self, folds: int, seed: int, used: list[_Fold], eps: float, bank, pool: dict):
        self.folds = folds  # planned folds, skipped ones included
        self.used = used
        self.eps = eps
        self.bank = tuple(bank)
        self.pool = pool  # bank spec -> its Gram over the CV pool
        self.bank_rank1 = self.rank1(self.bank)
        pis = tuple(float(v) for v in _mean_rank1(self.bank_rank1))
        self.accuracies = KernelAccuracies(pis=pis, folds=folds, fold_seed=seed)

    def rank1(self, kernels) -> np.ndarray:
        """Held-out rank-1 of every kernel config on every fold: a (configs, folds) array.

        Per fold each spec's pool Gram is cut once into training, probe and
        gallery blocks, which each config reads by its ``specs``. The configs
        are then scored in stacks of as many as fit _STACK_BYTES of fused
        n x n training Grams: every config at once on small folds, one at a
        time on large ones. Each config of a stack fuses its training blocks
        into one (configs, n, n) stack, which takes one scatter and one Fisher
        solve call; each config then embeds the held-out rows through ``fold``
        as a trained model serves them, and one distance and one ranking call
        score the stack. Skipped folds stay NaN.
        """
        pool = {s: self.pool[s] for k in kernels for s in k.specs}  # the Grams the configs fuse
        rank1 = np.full((len(kernels), self.folds), np.nan)
        # a stack's arrays other than its scatter pair are replaced, not freed, by
        # the next stack's: freed in bulk, the allocator hands their pages back
        # and each stack faults them in again
        for fold in self.used:
            train, probe, gallery = fold.cut(pool)
            step = max(1, _STACK_BYTES // (8 * fold.idx.n_total**2))
            for start in range(0, len(kernels), step):
                part = slice(start, start + step)
                configs = kernels[part]
                base = [[train[s] for s in k.specs] for k in configs]  # training blocks, per config
                sc = build_scatter(
                    np.stack([k.fuse(Ks) for k, Ks in zip(configs, base)]), fold.idx
                )
                A = solve_kfda(sc, fold.idx.n_classes - 1, self.eps).A
                del sc  # the largest stacks; not held while the next stack builds its own
                blocks = [(k.specs, k.fold(A_c, Ks)) for k, A_c, Ks in zip(configs, A, base)]
                # embed_batch's rule over the fold's training rows: sum_t k_t(Y, X) A_t
                Yp, Yg = (
                    np.stack([sum(H[s] @ A_t for s, A_t in zip(specs, At)) for specs, At in blocks])
                    for H in (probe, gallery)
                )
                # a probe without a match ranks 0, so it counts as a miss
                ranks = true_ranks(squared_distances(Yp, Yg), fold.probe_ids, fold.gallery_ids)
                rank1[part, fold.number] = np.count_nonzero(ranks == 1, axis=-1) / ranks.shape[-1]
        return rank1


def _mean_rank1(rank1: np.ndarray) -> np.ndarray:
    """Each row's mean rank-1 over the folds that were used (NaN marks a skipped fold)."""
    return np.nanmean(rank1, axis=1)


def cv_kernel_accuracies(ds: Dataset, plan: SplitPlan, bank, folds: int, eps: float) -> FoldPlan:
    """The trial's fold plan, with the mean held-out rank-1 accuracy of each spec in ``bank``.

    The folds split the training identities of the trial's split ``plan``,
    seeded by its trial seed and ranked across its cameras; its test ids are
    not read. :func:`build_config` runs its N or tau search on the returned
    plan's folds and pool Grams.
    """
    pool_idx, used = _make_folds(ds, plan, folds)
    specs = list(dict.fromkeys(bank))
    pool = dict(zip(specs, grams(specs, ds.features[pool_idx])))
    return FoldPlan(folds, plan.trial_seed, used, eps, bank, pool)


def build_config(
    variant: str, plan: FoldPlan, n_grid=None, tau_grid=DEFAULT_TAU_GRID
) -> MklConfig:
    """The np or sm config whose N or tau has the best mean CV rank-1 on fold plan ``plan``.

    np weighs the N best kernels by :func:`np_weights`; sm fuses the two best
    with scale tau. Ties pick the smallest N or tau; one candidate needs no
    CV. N = 1 is the best kernel at weight 1.0, so its fold row is taken from
    ``plan.bank_rank1`` unsolved. The config keeps the plan's accuracies, which
    hold no pool Gram. Uniform np weights (see :func:`np_weights`) are
    reported once, for the chosen N only, at the line that called this.
    """
    if variant not in ("np", "sm"):
        raise InputError(f"unknown mkl variant {variant!r}")
    acc = plan.accuracies
    fallback = {}  # np candidate -> why its weights are uniform, reported if it wins
    if variant == "np":
        n_grid = default_n_grid(acc.q) if n_grid is None else n_grid
        candidates = []
        for N in sorted(set(int(N) for N in n_grid)):
            weights, fallback[N] = _np_weights(acc.pis, N)
            candidates.append(
                MklConfig("np", plan.bank, weights=tuple(weights), n_top=N, accuracies=acc)
            )
    else:
        pair = select_sm_pair(acc.pis)
        candidates = [
            MklConfig("sm", plan.bank, pair=pair, tau=t, accuracies=acc)
            for t in sorted(set(float(t) for t in tau_grid))
        ]
    if not candidates:
        raise InputError(f"empty {'N' if variant == 'np' else 'tau'} grid")
    best = candidates[0]
    if len(candidates) > 1:
        solved = iter(plan.rank1([c for c in candidates if c.n_top != 1]))
        top = plan.bank_rank1[_ranked_indices(acc.pis)[0]]
        rank1 = np.array([top if c.n_top == 1 else next(solved) for c in candidates])
        best = candidates[int(np.argmax(_mean_rank1(rank1)))]
    if fallback.get(best.n_top):
        _warn_uniform(fallback[best.n_top])
    return best


def write_cv_csv(plan: FoldPlan, path) -> None:
    """CV report of a fold plan: one row per (kernel, used fold), then one 'mean' row per kernel."""
    with open_output(path, "CV report") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kernel", "fold", "rank1"])
        for r, row in enumerate(plan.bank_rank1):
            for f, v in enumerate(row):
                if not np.isnan(v):
                    writer.writerow([r, f, repr(float(v))])
        for r, pi in enumerate(plan.accuracies.pis):
            writer.writerow([r, "mean", repr(float(pi))])
