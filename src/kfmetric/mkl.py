"""Learning the multi-kernel configuration from per-kernel CV accuracies.

Identities (not samples) are partitioned into folds, so each held-out fold
contains classes unseen by that fold's model, mirroring the probe/gallery
protocol. Each kernel's accuracy pi_r is its mean held-out rank-1 score.

Two combination strategies are supported:

* truncated proportional weights over the N best kernels, with the
  (N+1)-th best accuracy as the threshold (weights of all other kernels
  are zero);
* squared-matrix fusion of the best two kernels with a cross-validated
  scale tau on the squared-difference term.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import ClassIndex, Dataset, default_cameras, index_classes
from .errors import InputError
from .kernels import (
    KernelSpec,
    bank_over,
    combine_convex,
    combine_sm,
    gram,
    squared_distances,
)
from .kfda import build_scatter, solve_kfda


@dataclass(frozen=True)
class KernelAccuracies:
    """Cross-validated rank-1 accuracy per kernel in a bank."""

    pis: tuple[float, ...]
    folds: int
    fold_seed: int
    # (q, folds) raw fold scores, NaN for skipped folds; report detail only
    per_fold: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.pis) < 1:
            raise InputError("need at least one kernel accuracy")
        if any(not 0.0 <= v <= 1.0 for v in self.pis):
            raise InputError("accuracies must lie in [0, 1]")

    @property
    def q(self) -> int:
        return len(self.pis)


@dataclass(frozen=True)
class MklConfig:
    """A learned multi-kernel combination over a fixed bank of specs.

    variant 'np': convex weights over the bank, exactly n_top nonzero.
    variant 'sm': squared-matrix fusion of bank kernels ``pair`` with scale tau.
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
        if self.variant == "np":
            if self.weights is None or self.n_top is None:
                raise InputError("np variant needs weights and n_top")
            w = np.asarray(self.weights, dtype=np.float64)
            if w.shape != (q,) or np.any(w < 0):
                raise InputError("np weights must be length-q and non-negative")
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
            i, j = self.pair
            if i == j or not (0 <= i < q and 0 <= j < q):
                raise InputError(f"sm pair must be two distinct bank indices, got {self.pair}")
            if self.tau < 0:
                raise InputError(f"tau must be non-negative, got {self.tau}")
            object.__setattr__(self, "pair", (int(i), int(j)))
        else:
            raise InputError(f"unknown mkl variant {self.variant!r}")
        object.__setattr__(self, "bank_specs", tuple(self.bank_specs))

    def train_gram(self, X: np.ndarray) -> np.ndarray:
        if self.variant == "np":
            active = [t for t, b in enumerate(self.weights) if b != 0.0]
            bank = bank_over([self.bank_specs[t] for t in active], X)
            return combine_convex(bank, [self.weights[t] for t in active]).values
        i, j = self.pair
        K1 = gram(self.bank_specs[i], X)
        K2 = gram(self.bank_specs[j], X)
        return combine_sm(K1, K2, self.tau).values

    def fold(self, X: np.ndarray, A: np.ndarray) -> tuple:
        """Embedding terms (spec_t, A_t) over basis X: embed(Y) = sum_t k_t(Y, X) A_t.

        np: one term per active kernel, A_t = beta_t A. sm: the fused cross
        kernel 0.5 (C_i + C_j) + tau (C_i - C_j) D, with D = K_i(X) - K_j(X),
        applied to A splits into C_i (A/2 + tau D A) + C_j (A/2 - tau D A).
        """
        if self.variant == "np":
            return tuple(
                (spec, b * A) for spec, b in zip(self.bank_specs, self.weights) if b != 0.0
            )
        i, j = self.pair
        D = gram(self.bank_specs[i], X).values - gram(self.bank_specs[j], X).values
        tDA = self.tau * (D @ A)
        return ((self.bank_specs[i], 0.5 * A + tDA), (self.bank_specs[j], 0.5 * A - tDA))

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


def np_weights(acc, N: int) -> list:
    """Truncated proportional weights over the N best kernels.

    The threshold is the (N+1)-th best accuracy; kernels outside the top N
    get weight zero. A tie between the N-th and (N+1)-th accuracies makes
    the rule degenerate, in which case the N selected kernels get uniform
    weights (reported via a warning). Arithmetic stays in the input number
    type, so Fraction accuracies yield exact rational weights.
    """
    pis = list(acc.pis) if isinstance(acc, KernelAccuracies) else list(acc)
    q = len(pis)
    if not 1 <= N < q:
        raise InputError(f"N must be in 1..q-1 = 1..{q - 1}, got {N}")
    order = _ranked_indices(pis)
    top = order[:N]
    threshold = pis[order[N]]
    weights = [0 * pis[0]] * q

    def uniform(reason):
        warnings.warn(
            f"{reason}; falling back to uniform weights over the selected kernels",
            stacklevel=3,
        )
        out = list(weights)
        for t in top:
            out[t] = 1 / N
        return out

    if pis[order[N - 1]] == threshold:
        return uniform(f"accuracy tie at the top-{N} boundary (pi = {float(threshold)})")
    total = sum(pis[t] - threshold for t in top)
    for t in top:
        weights[t] = (pis[t] - threshold) / total
    if any(weights[t] == 0 for t in top):
        # a selected margin underflowed to zero weight in float division
        return uniform("selected kernel weight underflowed to zero")
    return weights


def select_sm_pair(acc) -> tuple[int, int]:
    """Indices of the two best-performing kernels (stable on ties)."""
    pis = list(acc.pis) if isinstance(acc, KernelAccuracies) else list(acc)
    if len(pis) < 2:
        raise InputError("need at least 2 kernels to pick a pair")
    order = _ranked_indices(pis)
    return order[0], order[1]


@dataclass(frozen=True)
class _Fold:
    idx: ClassIndex  # classes of the fold's training samples, in train_pos order
    train_pos: tuple[int, ...]  # positions in the CV pool
    probe_pos: tuple[int, ...]
    gallery_pos: tuple[int, ...]
    probe_ids: np.ndarray  # identities, built once so ranking does not convert them
    gallery_ids: np.ndarray


@dataclass(frozen=True)
class _FoldPlan:
    pool_idx: tuple[int, ...]
    folds: tuple[_Fold, ...]


def _make_folds(
    ds: Dataset,
    train_ids,
    folds: int,
    seed: int,
    probe_camera: int,
    gallery_camera: int,
) -> _FoldPlan:
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

    pool_idx = sorted(ds.samples_of(ids))
    pos = {i: k for k, i in enumerate(pool_idx)}
    built = []
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
        train_subset = tuple(sorted(ds.samples_of(fit_ids)))
        probe = sorted(ds.samples_of(held_set, probe_camera))
        galry = sorted(ds.samples_of(held_set, gallery_camera))
        if not probe or not galry:
            warnings.warn(f"fold {f} has an empty probe or gallery set, skipping", stacklevel=3)
            continue
        built.append(
            _Fold(
                idx=index_classes(ds, train_subset),
                train_pos=tuple(pos[i] for i in train_subset),
                probe_pos=tuple(pos[i] for i in probe),
                gallery_pos=tuple(pos[i] for i in galry),
                probe_ids=np.array([ds.identities[i] for i in probe]),
                gallery_ids=np.array([ds.identities[i] for i in galry]),
            )
        )
    if not built:
        raise InputError("every cross-validation fold was skipped")
    return _FoldPlan(pool_idx=tuple(pool_idx), folds=tuple(built))


def _fold_rank1(fold: _Fold, K_tr, K_probe, K_gal, eps: float) -> float:
    """Rank-1 accuracy of one fold given its sliced kernel blocks."""
    from .evaluation import true_ranks  # deferred: evaluation depends on this module

    model = solve_kfda(build_scatter(K_tr, fold.idx), fold.idx.n_classes - 1, eps)
    dists = squared_distances(K_probe @ model.A, K_gal @ model.A)
    # a probe without a match ranks 0, so it counts as a miss
    return float(np.mean(true_ranks(dists, fold.probe_ids, fold.gallery_ids) == 1))


def _fold_blocks(K_pool: np.ndarray, fold: _Fold):
    tr = list(fold.train_pos)
    return (
        K_pool[np.ix_(tr, tr)],
        K_pool[np.ix_(list(fold.probe_pos), tr)],
        K_pool[np.ix_(list(fold.gallery_pos), tr)],
    )


def _sm_blocks(K1_pool, K2_pool, fold: _Fold, tau: float):
    """Fused-kernel blocks of one fold, basis = the fold's training samples."""
    T1, P1, G1 = _fold_blocks(K1_pool, fold)
    T2, P2, G2 = _fold_blocks(K2_pool, fold)
    D = T1 - T2
    K_tr = 0.5 * (T1 + T2) + tau * (D @ D)
    K_tr = 0.5 * (K_tr + K_tr.T)
    K_probe = 0.5 * (P1 + P2) + tau * ((P1 - P2) @ D)
    K_gal = 0.5 * (G1 + G2) + tau * ((G1 - G2) @ D)
    return K_tr, K_probe, K_gal


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
    """Mean held-out rank-1 accuracy of each kernel spec in ``bank``."""
    if probe_camera is None or gallery_camera is None:
        probe_camera, gallery_camera = default_cameras(ds)
    plan = _make_folds(ds, train_ids, folds, seed, probe_camera, gallery_camera)
    X_pool = ds.features[list(plan.pool_idx)]
    q = len(bank)
    per_fold = np.full((q, folds), np.nan)
    for r, spec in enumerate(bank):
        K_pool = gram(spec, X_pool).values
        for f, fold in enumerate(plan.folds):
            per_fold[r, f] = _fold_rank1(fold, *_fold_blocks(K_pool, fold), eps)
    pis = tuple(float(v) for v in np.nanmean(per_fold, axis=1))
    return KernelAccuracies(pis=pis, folds=folds, fold_seed=seed, per_fold=per_fold)


def select_tau(
    ds: Dataset,
    train_ids,
    bank,
    pair: tuple[int, int],
    tau_grid,
    folds: int,
    seed: int,
    eps: float,
    probe_camera: int | None = None,
    gallery_camera: int | None = None,
) -> float:
    """The tau maximizing mean CV rank-1 of the fused pair; ties pick the smallest."""
    taus = sorted(set(float(t) for t in tau_grid))
    if not taus:
        raise InputError("empty tau grid")
    if any(t < 0 for t in taus):
        raise InputError("tau grid must be non-negative")
    if probe_camera is None or gallery_camera is None:
        probe_camera, gallery_camera = default_cameras(ds)
    plan = _make_folds(ds, train_ids, folds, seed, probe_camera, gallery_camera)
    X_pool = ds.features[list(plan.pool_idx)]
    i, j = pair
    K1_pool = gram(bank[i], X_pool).values
    K2_pool = gram(bank[j], X_pool).values
    best_tau, best_score = taus[0], -1.0
    for tau in taus:
        scores = [
            _fold_rank1(fold, *_sm_blocks(K1_pool, K2_pool, fold, tau), eps)
            for fold in plan.folds
        ]
        mean = float(np.mean(scores))
        if mean > best_score:
            best_tau, best_score = tau, mean
    return best_tau


def select_n(
    ds: Dataset,
    train_ids,
    acc: KernelAccuracies,
    bank,
    n_grid,
    folds: int,
    seed: int,
    eps: float,
    probe_camera: int | None = None,
    gallery_camera: int | None = None,
) -> int:
    """The N maximizing mean CV rank-1 of the weighted bank; ties pick the smallest."""
    q = len(bank)
    candidates = sorted(set(int(N) for N in n_grid))
    if not candidates:
        raise InputError("empty N grid")
    if any(not 1 <= N < q for N in candidates):
        raise InputError(f"every N must be in 1..q-1 = 1..{q - 1}, got {candidates}")
    if probe_camera is None or gallery_camera is None:
        probe_camera, gallery_camera = default_cameras(ds)
    plan = _make_folds(ds, train_ids, folds, seed, probe_camera, gallery_camera)
    X_pool = ds.features[list(plan.pool_idx)]
    K_pools = [gram(spec, X_pool).values for spec in bank]
    best_n, best_score = candidates[0], -1.0
    for N in candidates:
        beta = np_weights(acc, N)
        # convex combination commutes with block slicing, so combine once
        K_pool = sum(b * K for b, K in zip(beta, K_pools) if b != 0)
        scores = [
            _fold_rank1(fold, *_fold_blocks(K_pool, fold), eps) for fold in plan.folds
        ]
        mean = float(np.mean(scores))
        if mean > best_score:
            best_n, best_score = N, mean
    return best_n


def build_config(
    variant: str,
    acc: KernelAccuracies,
    ds: Dataset,
    train_ids,
    bank,
    eps: float,
    n_grid=None,
    tau_grid=(0.0, 1e-3, 1e-2, 1e-1, 1.0),
    folds: int | None = None,
    seed: int | None = None,
    probe_camera: int | None = None,
    gallery_camera: int | None = None,
) -> MklConfig:
    """Assemble an MklConfig from CV accuracies, running the grid searches."""
    bank = tuple(bank)
    folds = acc.folds if folds is None else folds
    seed = acc.fold_seed if seed is None else seed
    if variant == "np":
        q = len(bank)
        if n_grid is None:
            n_grid = range(1, min(5, q - 1) + 1)
        candidates = sorted(set(int(N) for N in n_grid))
        if len(candidates) == 1:
            N = candidates[0]
            if not 1 <= N < q:
                raise InputError(f"N must be in 1..q-1 = 1..{q - 1}, got {N}")
        else:
            N = select_n(
                ds, train_ids, acc, bank, candidates, folds, seed, eps,
                probe_camera, gallery_camera,
            )
        beta = tuple(float(b) for b in np_weights(acc, N))
        return MklConfig(
            variant="np", bank_specs=bank, weights=beta, n_top=N, accuracies=acc
        )
    if variant == "sm":
        pair = select_sm_pair(acc)
        taus = sorted(set(float(t) for t in tau_grid))
        if len(taus) == 1:
            tau = taus[0]
            if tau < 0:
                raise InputError(f"tau must be non-negative, got {tau}")
        else:
            tau = select_tau(
                ds, train_ids, bank, pair, taus, folds, seed, eps,
                probe_camera, gallery_camera,
            )
        return MklConfig(
            variant="sm", bank_specs=bank, pair=pair, tau=tau, accuracies=acc
        )
    raise InputError(f"unknown mkl variant {variant!r}")


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
