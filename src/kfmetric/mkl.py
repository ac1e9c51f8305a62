"""Learning the multi-kernel configuration from per-kernel CV accuracies.

A trial's training identities (not samples) are partitioned into folds, so each
held-out fold contains classes unseen by that fold's model, mirroring the probe/gallery
protocol: CV reads only the training ids, seed and cameras of the trial's
:class:`~kfmetric.data.SplitPlan`. Each kernel's accuracy pi_r is its mean held-out rank-1 score.
Every cross-validated choice of a trial (pi_r, then N or tau) is scored on
one :class:`FoldPlan`, which :func:`cv_kernel_accuracies` builds once with the
pool's squared distances and returns as the trial's CV result: the plan scores
the bank when it is built and holds the persisted
:class:`~kfmetric.kernels.KernelAccuracies`. Each fold's rows are positions in
the pool. One loop over the folds scores the candidate configurations of a
fold in stacks: one cut of the distances for the rbf kernels a stack reads
first, one scatter, one Fisher solve, one distance and one
:func:`~kfmetric.metric.true_ranks` call per stack, and one stack per fold
unless the fold is large. The Fisher solve runs in the stages of
:mod:`~kfmetric.kfda`, pipelined under the rule of
:func:`~kfmetric.threads.helper`: each stack's c x c eigensolve runs on the
helper, by numpy's eigh, while the next stack is whitened; without a helper
it is scipy's syevd on the main thread, as in :func:`~kfmetric.kfda.solve_kfda`.
Either way the results and errors are those of running the stacks in turn.
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
from typing import NamedTuple

import numpy as np

from . import threads
from .config import DEFAULT_TAU_GRID, default_n_grid
from .data import ClassIndex, Dataset, SplitPlan, index_classes, open_output
from .errors import InputError
from .kernels import (
    KernelAccuracies,
    MklConfig,
    distances,
    grams,
    rbf_blocks,
    squared_distances,
)
from .kfda import Whitening, build_scatter, discriminants, whiten
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

    def cut(self, K: np.ndarray) -> np.ndarray:
        """A pool matrix's training, probe and gallery rows over the training columns.

        Its training, probe and gallery blocks are the row slices at ``bounds``.
        A column take, then a row take: the pool x n intermediate lives only
        for the call, and no index as large as the cut is built. The cut is a
        new array the caller owns.
        """
        return K.take(self.rows[: self.bounds[0]], axis=1).take(self.rows, axis=0)

    def cuts(self, specs, sq: np.ndarray | None, pool: dict) -> dict:
        """Each spec's kernel over the :meth:`cut` rows and columns, read-only, by spec.

        The rbf specs take one cut of the pool's squared distances ``sq``, which
        :func:`~kfmetric.kernels.rbf_blocks` turns into their stacked blocks, the
        bits of cuts of their pool Grams. Any other spec cuts its Gram in ``pool``.
        """
        rbf = [s for s in specs if s.kind == "rbf"]
        out = dict(zip(rbf, rbf_blocks(self.cut(sq), rbf, in_place=True))) if rbf else {}
        for s in specs:
            if s.kind != "rbf":
                out[s] = self.cut(pool[s])
                out[s].setflags(write=False)
        return out


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
# call takes: all bank kernels of a small fold share one call, while a large
# fold solves one config per call, since about 2.5 n x n stacks live at once
# through the scatter and solve, and a stack of large ones ran slower than
# single calls
_STACK_BYTES = 1 << 20


class FoldPlan:
    """One trial's CV result: its used folds, eps, the bank, the pool's distances and scores.

    ``distances`` holds the CV pool's squared distances (None for a bank with
    no rbf kernel): one n x n matrix, not one pool Gram per rbf bank kernel,
    from which each stack cuts the kernels it reads (:meth:`_Fold.cuts`).
    ``pool`` keeps the Gram of each other bank kernel. So every stage of the
    trial (pi_r, then N or tau) scores its candidates on the same folds
    without recomputing a pool matrix: every candidate fuses bank kernels.
    The bank is scored when the plan is built: ``bank_rank1`` is its
    (q, folds) rank-1 array, NaN on skipped folds, and ``accuracies`` its
    mean per kernel.
    """

    def __init__(
        self, folds: int, seed: int, used: list[_Fold], eps: float, bank, distances, pool: dict
    ):
        self.folds = folds  # planned folds, skipped ones included
        self.used = used
        self.eps = eps
        self.bank = tuple(bank)
        self.distances = distances
        self.pool = pool  # non-rbf bank spec -> its Gram over the CV pool
        self.bank_rank1 = self.rank1(self.bank)
        pis = tuple(float(v) for v in _mean_rank1(self.bank_rank1))
        self.accuracies = KernelAccuracies(pis=pis, folds=folds, fold_seed=seed)

    def rank1(self, kernels) -> np.ndarray:
        """Held-out rank-1 of every kernel config on every fold: a (configs, folds) array.

        The configs of a fold are scored in stacks of as many as fit
        _STACK_BYTES of fused n x n training Grams: every config at once on
        small folds, one at a time on large ones. Each (fold, stack) unit is
        whitened (:meth:`_whitened`), eigensolved, then finished
        (:meth:`_finish`): discriminants, held-out embedding and ranking.
        The units run as a depth-1 pipeline, one loop with or without a
        helper: unit k's c x c eigensolve is started, unit k - 1 is finished,
        and unit k + 1 is whitened before unit k is finished. When
        :func:`~kfmetric.threads.helper` yields a helper, the eigensolve is
        :meth:`~kfmetric.kfda.Whitening.eigh`, numpy's eigh, which releases
        the GIL, run on the helper, so it overlaps the next whitening; numpy's
        eigh calls no function of this package that a tracer of public calls
        could see from the helper. Without one it is
        :meth:`~kfmetric.kfda.Whitening.syevd`, scipy's, run on this thread
        when unit k is finished. So besides the unit being whitened, one unit
        is in flight, holding copies of its held-out cut rows, its L, Y and G,
        and each sm config's D = K_i - K_j over the training rows, but no cut;
        keeping it until the next unit is built also spares the allocator
        handing its pages back and faulting them in again. The results and
        the first error raised are those of running the units one after
        another: a unit is finished before an error from whitening the next
        one is raised. Skipped folds stay NaN.
        """
        rank1 = np.full((len(kernels), self.folds), np.nan)
        units = self._whitened(kernels)
        with threads.helper("kfmetric-eigh") as start:
            flight = None  # the unit whose eigensolve runs while the next is whitened
            while True:
                try:
                    unit, failed = next(units, None), None
                except Exception as exc:
                    unit, failed = None, exc
                if unit is not None:  # started before the unit in flight is finished
                    job = unit.w.syevd if start is None else start(unit.w.eigh)
                if flight is not None:
                    self._finish(*flight, rank1)
                if failed is not None:
                    raise failed
                if unit is None:
                    return rank1
                flight = unit, job

    def _whitened(self, kernels):
        """Yield each (fold, stack) unit of :meth:`rank1`, whitened, in fold then stack order.

        A stack cuts (:meth:`_Fold.cuts`) only the kernels its configs read,
        keeping those of the previous stack on its fold that it reads too. So
        through a solve a large fold holds one cut in the bank pass, two in
        the sm tau pass and N for an np config, not one per bank kernel. The
        previous stack's other cuts are freed once the new ones are built:
        freed before, the allocator hands their pages back and faults them in
        again for the new cuts.
        """
        cuts = {}
        for fold in self.used:
            step = max(1, _STACK_BYTES // (8 * fold.idx.n_total**2))
            for start in range(0, len(kernels), step):
                part = slice(start, start + step)
                specs = dict.fromkeys(s for k in kernels[part] for s in k.specs)
                # the previous stack's cuts this one reads: none on a new fold
                kept = {s: B for s, B in cuts.items() if start and s in specs}
                new = [s for s in specs if s not in kept]
                cuts = kept | fold.cuts(new, self.distances, self.pool)
                yield self._unit(fold, part, kernels[part], cuts)

    def _unit(self, fold: _Fold, part: slice, configs, cuts: dict) -> _Unit:
        """One stack of configs on one fold, whitened, from the cuts of the specs it reads.

        The stack fuses its configs' training blocks into one (configs, n, n)
        stack, handed unnamed to one scatter and one
        :func:`~kfmetric.kfda.whiten` call, which free each n x n buffer once
        read; then each config takes its ``fold`` map (sm's holds its own
        D = K_i - K_j, no cut). The unit keeps copies of the held-out rows of
        the cuts, so it holds no cut, and a cut no later stack reads is freed
        while the unit is in flight.
        """
        a = fold.bounds[0]
        base = [[cuts[s][:a] for s in k.specs] for k in configs]  # training blocks
        w = whiten(
            build_scatter(np.stack([k.fuse(Ks) for k, Ks in zip(configs, base)]), fold.idx),
            fold.idx.n_classes - 1,
            self.eps,
        )
        maps = [k.fold(Ks) for k, Ks in zip(configs, base)]
        held = {s: B[a:].copy() for s, B in cuts.items()}  # cuts holds the stack's specs
        return _Unit(fold, part, configs, maps, held, w)

    @staticmethod
    def _finish(unit: _Unit, eigh, rank1: np.ndarray) -> None:
        """Score a whitened unit, its eigenvalues from ``eigh()``, into its cells of ``rank1``."""
        fold = unit.fold
        A = discriminants(unit.w, eigh()).A
        terms = [tuple(zip(k.specs, m(A_c))) for k, m, A_c in zip(unit.configs, unit.maps, A)]
        # embed_batch's rule over the fold's training rows: sum_t k_t(Y, X) A_t
        a, b = fold.bounds
        Yp, Yg = (
            np.stack([sum(unit.held[s][i:j] @ A_t for s, A_t in t) for t in terms])
            for i, j in ((0, b - a), (b - a, None))
        )
        # a probe without a match ranks 0, so it counts as a miss
        ranks = true_ranks(squared_distances(Yp, Yg), fold.probe_ids, fold.gallery_ids)
        rank1[unit.part, fold.number] = np.count_nonzero(ranks == 1, axis=-1) / ranks.shape[-1]


class _Unit(NamedTuple):
    """One stack of configs on one fold, whitened, as :meth:`FoldPlan._whitened` yields it."""

    fold: _Fold
    part: slice  # the configs' rows of the rank-1 array
    configs: list
    maps: list  # each config's fold map
    held: dict  # spec -> the held-out (probe, then gallery) rows of its cut
    w: Whitening


def _mean_rank1(rank1: np.ndarray) -> np.ndarray:
    """Each row's mean rank-1 over the folds that were used (NaN marks a skipped fold)."""
    return np.nanmean(rank1, axis=1)


def cv_kernel_accuracies(ds: Dataset, plan: SplitPlan, bank, folds: int, eps: float) -> FoldPlan:
    """The trial's fold plan, with the mean held-out rank-1 accuracy of each spec in ``bank``.

    The folds split the training identities of the trial's split ``plan``,
    seeded by its trial seed and ranked across its cameras; its test ids are
    not read. :func:`build_config` runs its N or tau search on the returned
    plan's folds and pool distances.
    """
    pool_idx, used = _make_folds(ds, plan, folds)
    X = ds.features[pool_idx]
    sq = distances(X) if any(s.kind == "rbf" for s in bank) else None
    others = [s for s in dict.fromkeys(bank) if s.kind != "rbf"]  # each keeps its pool Gram
    pool = dict(zip(others, grams(others, X)))
    return FoldPlan(folds, plan.trial_seed, used, eps, bank, sq, pool)


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
