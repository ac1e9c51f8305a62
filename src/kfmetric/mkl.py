"""Learning the multi-kernel configuration from per-kernel CV accuracies.

Identities (not samples) are partitioned into folds, so each held-out fold
contains classes unseen by that fold's model, mirroring the probe/gallery
protocol. Each kernel's accuracy pi_r is its mean held-out rank-1 score.
Every cross-validated choice of a trial (pi_r, then N or tau) is scored on
one fold plan, which :func:`cv_kernel_accuracies` builds once with its pool
Grams, by one loop over the folds that scores the candidate kernel
configurations of a fold in stacks: one scatter, one Fisher-solve call, one
distance and one ranking call per stack, and one stack per fold unless the
fold is large. :func:`build_config` is the one N or tau search.

Two combination strategies are supported:

* truncated proportional weights over the N best kernels, with the
  (N+1)-th best accuracy as the threshold (weights of all other kernels
  are zero);
* squared-matrix fusion of the best two kernels with a cross-validated
  scale tau on the squared-difference term.

``MklConfig.fuse`` (the fused Gram over a basis) and ``MklConfig.fold`` (the
per-kernel coefficient blocks a trained model embeds with) are the only code
that combines Grams.
"""

from __future__ import annotations

import csv
import numbers
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .config import DEFAULT_TAU_GRID, default_n_grid
from .data import ClassIndex, Dataset, default_cameras, index_classes
from .errors import InputError, NumericError
from .kernels import KernelSpec, grams, squared_distances
from .kfda import build_scatter, solve_kfda


@dataclass(frozen=True)
class KernelAccuracies:
    """Cross-validated rank-1 accuracy per kernel in a bank."""

    pis: tuple[float, ...]
    folds: int
    fold_seed: int
    # (q, folds) raw fold scores, NaN for skipped folds; report detail only
    per_fold: np.ndarray | None = field(default=None, compare=False, repr=False)
    # the fold plan that scored them, for build_config's search; never persisted
    plan: _FoldPlan | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.pis) < 1:
            raise InputError("need at least one kernel accuracy")
        if not all(_is_real(v) for v in self.pis):
            raise InputError(f"accuracies must be numbers, got {list(self.pis)!r}")
        if any(not 0.0 <= v <= 1.0 for v in self.pis):
            raise InputError("accuracies must lie in [0, 1]")
        if not (_is_int(self.folds) and _is_int(self.fold_seed)):
            raise InputError(
                f"folds and fold_seed must be integers, got {self.folds!r} and {self.fold_seed!r}"
            )

    @property
    def q(self) -> int:
        return len(self.pis)


def _is_int(v) -> bool:
    """An integer that is not a bool (JSON true/false would pass int())."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """A real number that is not a bool (JSON true/false and "0.5" would pass float())."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


@dataclass(frozen=True)
class MklConfig:
    """A learned multi-kernel combination over a fixed bank of specs.

    variant 'np': convex weights over the bank, exactly n_top nonzero.
    variant 'sm': squared-matrix fusion of bank kernels ``pair`` with scale tau.
    The other variant's fields must be None.
    """

    variant: str
    bank_specs: tuple[KernelSpec, ...]
    weights: tuple[float, ...] | None = None
    n_top: int | None = None
    pair: tuple[int, int] | None = None
    tau: float | None = None
    accuracies: KernelAccuracies | None = None

    def __post_init__(self):
        q = len(self.bank_specs)
        if q < 1:
            raise InputError("bank must contain at least one kernel")
        if self.variant not in ("np", "sm"):
            raise InputError(f"unknown mkl variant {self.variant!r}")
        other = ("pair", "tau") if self.variant == "np" else ("weights", "n_top")
        extra = {f: getattr(self, f) for f in other if getattr(self, f) is not None}
        if extra:
            raise InputError(f"{self.variant} variant fields {other} must be None, got {extra}")
        if self.variant == "np":
            if self.weights is None or self.n_top is None:
                raise InputError("np variant needs weights and n_top")
            if not _is_int(self.n_top):
                raise InputError(f"np n_top must be an integer, got {self.n_top!r}")
            if not all(_is_real(v) for v in self.weights):
                raise InputError(f"np weights must be numbers, got {list(self.weights)!r}")
            w = np.asarray(self.weights, dtype=np.float64)
            if w.shape != (q,) or not np.all(np.isfinite(w) & (w >= 0)):
                raise InputError("np weights must be length-q, finite and non-negative")
            if abs(float(w.sum()) - 1.0) > 1e-12:
                raise InputError(f"np weights must sum to 1, got {w.sum()!r}")
            if int(np.count_nonzero(w)) != min(self.n_top, q):
                raise InputError(
                    f"np weights must have exactly {min(self.n_top, q)} nonzero entries"
                )
            object.__setattr__(self, "weights", tuple(float(v) for v in w))
        elif self.variant == "sm":
            if self.pair is None or self.tau is None:
                raise InputError("sm variant needs a kernel pair and tau")
            if len(self.pair) != 2 or not all(_is_int(t) for t in self.pair):
                raise InputError(f"sm pair must be two integer bank indices, got {self.pair}")
            i, j = self.pair
            if i == j or not (0 <= i < q and 0 <= j < q):
                raise InputError(f"sm pair must be two distinct bank indices, got {self.pair}")
            if not _is_real(self.tau):
                raise InputError(f"tau must be a number, got {self.tau!r}")
            if not 0 <= self.tau < np.inf:
                raise InputError(f"tau must be finite and non-negative, got {self.tau}")
            object.__setattr__(self, "pair", (int(i), int(j)))
        object.__setattr__(self, "bank_specs", tuple(self.bank_specs))

    @property
    def specs(self) -> tuple[KernelSpec, ...]:
        """The bank kernels this config fuses: the nonzero-weight np kernels, or the sm pair."""
        if self.variant == "np":
            return tuple(s for s, b in zip(self.bank_specs, self.weights) if b != 0.0)
        return tuple(self.bank_specs[t] for t in self.pair)

    def fuse(self, grams) -> np.ndarray:
        """The fused square Gram over one basis.

        ``grams[t]`` is the square Gram of ``specs[t]`` over the basis. np sums
        them with the nonzero weights. sm fuses the pair as
        0.5 (K_i + K_j) + tau (K_i - K_j)^2, which is PSD whenever both are
        symmetric PSD, and symmetrizes it; a tau large enough to overflow raises.
        """
        if self.variant == "np":
            beta = [b for b in self.weights if b != 0.0]
            return sum(b * K for b, K in zip(beta, grams))
        Ki, Kj = grams
        D = Ki - Kj
        out = 0.5 * (Ki + Kj) + self.tau * (D @ D)
        out = 0.5 * (out + out.T)
        if not np.isfinite(out).all():
            raise NumericError("kernel matrix contains non-finite entries")
        return out

    def fold(self, A: np.ndarray, grams) -> tuple:
        """One coefficient block A_t per spec over basis X: embed(Y) = sum_t k_t(Y, X) A_t.

        np: A_t = beta_t A. sm: the fused cross kernel 0.5 (C_i + C_j) + tau (C_i - C_j) D,
        with D = K_i - K_j over X, applied to A splits into
        C_i (A/2 + tau D A) + C_j (A/2 - tau D A). ``grams`` yields the Gram
        of each spec over X, as for :meth:`fuse`; only sm reads it.
        """
        if self.variant == "np":
            return tuple(b * A for b in self.weights if b != 0.0)
        Ki, Kj = grams
        tDA = self.tau * ((Ki - Kj) @ A)
        return (0.5 * A + tDA, 0.5 * A - tDA)

    def to_dict(self) -> dict:
        doc = {
            "type": "mkl",
            "variant": self.variant,
            "bank_specs": [s.to_dict() for s in self.bank_specs],
            "weights": list(self.weights) if self.weights is not None else None,
            "n_top": self.n_top,
            "pair": list(self.pair) if self.pair is not None else None,
            "tau": self.tau,
        }
        if self.accuracies is not None:
            doc["accuracies"] = {
                "pis": list(self.accuracies.pis),
                "folds": self.accuracies.folds,
                "fold_seed": self.accuracies.fold_seed,
            }
        return doc

    @staticmethod
    def from_dict(d: dict) -> "MklConfig":
        acc = None
        if d.get("accuracies"):
            a = d["accuracies"]
            acc = KernelAccuracies(tuple(a["pis"]), a["folds"], a["fold_seed"])
        return MklConfig(
            variant=d["variant"],
            bank_specs=tuple(KernelSpec.from_dict(s) for s in d["bank_specs"]),
            weights=tuple(d["weights"]) if d.get("weights") is not None else None,
            n_top=d.get("n_top"),
            pair=tuple(d["pair"]) if d.get("pair") is not None else None,
            tau=d.get("tau"),
            accuracies=acc,
        )


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
    idx: ClassIndex  # classes of the fold's training samples, in train_pos order
    train_pos: np.ndarray  # positions in the CV pool
    rows: np.ndarray  # pool positions of the training, then probe, then gallery samples
    bounds: tuple[int, int]  # where the probe and the gallery rows start in ``rows``
    probe_ids: np.ndarray  # identity codes, built once so ranking does not convert them
    gallery_ids: np.ndarray

    def cut(self, grams) -> tuple:
        """Pool Grams' training, probe and gallery rows over the training columns.

        One take per Gram, through one flat index built for the call; each
        Gram's three blocks are read-only row slices of its cut. Returns the
        training, probe and gallery blocks as three lists in Gram order.
        """
        entries = self.rows[:, None] * grams[0].shape[1] + self.train_pos
        cuts = [K.take(entries) for K in grams]
        for B in cuts:
            B.setflags(write=False)
        a, b = self.bounds
        return [B[:a] for B in cuts], [B[a:b] for B in cuts], [B[b:] for B in cuts]


def _make_folds(ds: Dataset, train_ids, folds: int, seed: int, probe_camera, gallery_camera):
    """The CV pool's sample indices and the folds that are used, each with its blocks' positions."""
    ids = sorted(train_ids)
    if folds < 2:
        raise InputError(f"need at least 2 folds, got {folds}")
    if len(ids) < folds:
        raise InputError(f"need at least {folds} identities for {folds} folds, got {len(ids)}")
    rng = np.random.default_rng(seed)
    order = [ids[i] for i in rng.permutation(len(ids))]
    base, extra = divmod(len(order), folds)
    groups = []
    start = 0
    for f in range(folds):
        size = base + (1 if f < extra else 0)
        groups.append(order[start : start + size])
        start += size

    pool_idx = ds.samples_of(ids)
    pos = {i: k for k, i in enumerate(pool_idx)}
    built = []
    # a skip warning points at the caller of cv_kernel_accuracies
    for f, held in enumerate(groups):
        if len(held) < 2:
            warnings.warn(
                f"fold {f} holds out {len(held)} identity; rank-1 is degenerate, skipping",
                stacklevel=3,
            )
            continue
        held_set = set(held)
        fit_ids = [i for i in ids if i not in held_set]
        if len(fit_ids) < 2:
            warnings.warn(f"fold {f} leaves fewer than 2 training classes, skipping", stacklevel=3)
            continue
        train_subset = ds.samples_of(fit_ids)
        probe = ds.samples_of(held_set, probe_camera)
        galry = ds.samples_of(held_set, gallery_camera)
        if not probe or not galry:
            warnings.warn(f"fold {f} has an empty probe or gallery set, skipping", stacklevel=3)
            continue
        rows = np.array([pos[i] for i in (*train_subset, *probe, *galry)], dtype=np.intp)
        built.append(
            _Fold(
                number=f,
                idx=index_classes(ds, train_subset),
                train_pos=rows[: len(train_subset)],
                rows=rows,
                bounds=(len(train_subset), len(train_subset) + len(probe)),
                probe_ids=ds.identity_codes[probe],
                gallery_ids=ds.identity_codes[galry],
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


@dataclass(eq=False)
class _FoldPlan:
    """One trial's CV setting, built once: its used folds, eps, the bank and its pool Grams.

    ``pool`` holds each distinct bank kernel's Gram over the CV pool, all
    computed from one distance matrix, so every stage of the trial (pi_r,
    then N or tau) scores its candidates on the same folds without
    recomputing a pool Gram: every candidate fuses bank kernels.
    """

    folds: int  # planned folds, skipped ones included
    used: list[_Fold]
    eps: float
    bank: tuple[KernelSpec, ...]
    pool: dict  # bank spec -> its Gram over the CV pool

    def rank1(self, kernels) -> np.ndarray:
        """Held-out rank-1 of every kernel config on every fold: a (configs, folds) array.

        Per fold each spec's pool Gram is cut once into training, probe and
        gallery blocks. The configs are then scored in stacks of as many as
        fit _STACK_BYTES of fused n x n training Grams: every config at once
        on small folds, one at a time on large ones. Each config of a stack
        fuses its training blocks into one (configs, n, n) stack, which takes
        one scatter and one Fisher solve call; each config then embeds the
        held-out rows through ``fold`` as a trained model serves them, and
        one distance and one ranking call score the stack. Skipped folds stay
        NaN.
        """
        from .evaluation import true_ranks  # deferred: evaluation depends on this module

        specs = list(dict.fromkeys(s for k in kernels for s in k.specs))
        at = [[specs.index(s) for s in kernel.specs] for kernel in kernels]
        rank1 = np.full((len(kernels), self.folds), np.nan)
        # a stack's arrays other than its scatter pair are replaced, not freed, by
        # the next stack's: freed in bulk, the allocator hands their pages back
        # and each stack faults them in again
        for fold in self.used:
            train, probe, gallery = fold.cut([self.pool[s] for s in specs])
            step = max(1, _STACK_BYTES // (8 * fold.idx.n_total**2))
            for start in range(0, len(kernels), step):
                part = slice(start, start + step)
                configs, picks = kernels[part], at[part]
                base = [[train[i] for i in t] for t in picks]  # each config's training blocks
                sc = build_scatter(
                    np.stack([k.fuse(Ks) for k, Ks in zip(configs, base)]), fold.idx
                )
                A = solve_kfda(sc, fold.idx.n_classes - 1, self.eps).A
                del sc  # the largest stacks; not held while the next stack builds its own
                blocks = [k.fold(A_c, Ks) for k, A_c, Ks in zip(configs, A, base)]
                # embed_batch's rule over the fold's training rows: sum_t k_t(Y, X) A_t
                Yp, Yg = (
                    np.stack(
                        [sum(H[i] @ A_t for i, A_t in zip(t, b)) for t, b in zip(picks, blocks)]
                    )
                    for H in (probe, gallery)
                )
                # a probe without a match ranks 0, so it counts as a miss
                ranks = true_ranks(squared_distances(Yp, Yg), fold.probe_ids, fold.gallery_ids)
                rank1[part, fold.number] = np.count_nonzero(ranks == 1, axis=-1) / ranks.shape[-1]
        return rank1


def _mean_rank1(rank1: np.ndarray) -> np.ndarray:
    """Each row's mean rank-1 over the folds that were used (NaN marks a skipped fold)."""
    return np.nanmean(rank1, axis=1)


def cv_kernel_accuracies(
    ds: Dataset,
    train_ids,
    bank,
    folds: int,
    seed: int,
    eps: float,
    probe_camera: int | None = None,
    gallery_camera: int | None = None,
) -> KernelAccuracies:
    """Mean held-out rank-1 accuracy of each kernel spec in ``bank``.

    The result carries the trial's fold plan, so :func:`build_config` runs
    its N or tau search on the same folds and pool Grams.
    """
    if probe_camera is None or gallery_camera is None:
        probe_camera, gallery_camera = default_cameras(ds)
    pool_idx, used = _make_folds(ds, train_ids, folds, seed, probe_camera, gallery_camera)
    specs = list(dict.fromkeys(bank))
    pool = dict(zip(specs, grams(specs, ds.features[pool_idx])))
    plan = _FoldPlan(folds, used, eps, tuple(bank), pool)
    per_fold = plan.rank1(plan.bank)
    pis = tuple(float(v) for v in _mean_rank1(per_fold))
    return KernelAccuracies(pis=pis, folds=folds, fold_seed=seed, per_fold=per_fold, plan=plan)


def build_config(
    variant: str, acc: KernelAccuracies, n_grid=None, tau_grid=DEFAULT_TAU_GRID
) -> MklConfig:
    """The np or sm config whose N or tau has the best mean CV rank-1 on ``acc``'s fold plan.

    np weighs the N best kernels by :func:`np_weights`; sm fuses the two best
    with scale tau. Ties pick the smallest N or tau; one candidate needs no
    CV. N = 1 is the best kernel at weight 1.0, so its fold row is taken from
    ``acc.per_fold`` unsolved. The config keeps ``acc`` without its fold plan,
    so it holds no pool Gram. Uniform np weights (see :func:`np_weights`) are
    reported once, for the chosen N only, at the line that called this.
    """
    if variant not in ("np", "sm"):
        raise InputError(f"unknown mkl variant {variant!r}")
    plan = acc.plan
    if plan is None:
        raise InputError("accuracies without a fold plan; compute them by cv_kernel_accuracies")
    acc = replace(acc, plan=None)
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
        top = acc.per_fold[_ranked_indices(acc.pis)[0]]
        rank1 = np.array([top if c.n_top == 1 else next(solved) for c in candidates])
        best = candidates[int(np.argmax(_mean_rank1(rank1)))]
    if fallback.get(best.n_top):
        _warn_uniform(fallback[best.n_top])
    return best


def write_cv_csv(acc: KernelAccuracies, path) -> None:
    """CV report: one row per (kernel, fold), then one 'mean' row per kernel."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kernel", "fold", "rank1"])
        if acc.per_fold is not None:
            for r in range(acc.q):
                for f in range(acc.per_fold.shape[1]):
                    v = acc.per_fold[r, f]
                    if not np.isnan(v):
                        writer.writerow([r, f, repr(float(v))])
        for r, pi in enumerate(acc.pis):
            writer.writerow([r, "mean", repr(float(pi))])
