"""Kernel configurations, Gram matrices and width heuristics.

A kernel configuration, the kernel KFDA learns its metric over, is a :class:`KernelSpec` or
an :class:`MklConfig` over a bank (which :mod:`kfmetric.mkl` learns). Both expose ``specs``,
``fuse``, ``fold``, ``to_dict`` and ``describe``, and :func:`config_from_dict` is the one parser
of their documents, so no other module tells them apart. ``MklConfig.fuse`` and
``MklConfig.fold`` are the only code that combines Grams. An MklConfig keeps the
:class:`KernelAccuracies` it was learned from: only what a model file stores of them, while
the fold plan that scored them is :mod:`kfmetric.mkl`'s.

A Gram is a plain read-only float64 ndarray, checked finite when it is built.
:func:`grams` builds the blocks of several specs over one (rows, cols) pair
from one squared-distance matrix.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .config import _is_int, _is_real
from .errors import InputError, NumericError

KERNEL_KINDS = ("rbf", "linear", "poly2")

# the widest rbf width whose 2 sigma^2 is still a finite float
MAX_RBF_WIDTH = math.sqrt(sys.float_info.max / 2.0)


def squared_distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between the rows of X and Y, clipped at zero.

    Each entry is max((|x|^2 + |y|^2) - 2 <x, y>, 0), evaluated in that
    order in two m x g buffers: X Y^T, doubled in place, and the broadcast
    sum of squared norms, from which it is subtracted before the clip, both
    in place. Stacks broadcast numpy style: (..., m, d) and (..., g, d) give
    (..., m, g), each matrix the bits of a 2-D call on its pair; 2-D input
    gives the (m, g) matrix. With Y the same array as X the
    matrix is exactly symmetric: X X^T runs as one syrk and the norm sum
    commutes. Rows large enough to overflow give inf or NaN entries without
    a numpy warning; the callers check the result (:func:`grams`,
    ``true_ranks``).
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    with np.errstate(over="ignore", invalid="ignore"):
        cross = X @ Y.swapaxes(-1, -2)
        cross *= 2.0
        sq = np.sum(X * X, axis=-1)[..., :, None] + np.sum(Y * Y, axis=-1)[..., None, :]
        sq -= cross
        return np.maximum(sq, 0.0, out=sq)


@dataclass(frozen=True)
class KernelSpec:
    """Parametric kernel: 'rbf' with width sigma, or 'linear' or 'poly2' with width None.

    rbf:    k(x, y) = exp(-||x - y||^2 / (2 sigma^2))
    linear: k(x, y) = <x, y>
    poly2:  k(x, y) = (<x, y> + 1)^2

    linear and poly2 exist for oracle testing against explicit feature maps;
    the shipped retrieval pipeline uses rbf.
    """

    kind: str
    width: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise InputError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf":
            w = self.width
            if (w is None or isinstance(w, bool) or not np.isfinite(w) or w <= 0
                    or w > MAX_RBF_WIDTH):
                raise InputError(
                    f"rbf kernel needs width in (0, {MAX_RBF_WIDTH:.4g}], got {self.width}"
                )
        elif self.width is not None:
            raise InputError(f"{self.kind} kernel takes no width, got {self.width!r}")

    @property
    def specs(self) -> tuple["KernelSpec", ...]:
        """The base kernels this kernel is built from: itself."""
        return (self,)

    def fuse(self, grams):
        """The Gram of :attr:`specs` over a basis, unchanged (see ``MklConfig.fuse``)."""
        return grams[0]

    def fold(self, grams):
        """The map from coefficients A over a basis X to the block of :attr:`specs`.

        embed(Y) = k(Y, X) A, so the block is A itself and ``grams`` is not read.
        """
        return lambda A: (A,)

    def to_dict(self) -> dict:
        return {"type": "kernel", "kind": self.kind, "width": self.width}

    def describe(self) -> str:
        return f"{self.kind} width={self.width!r}"


@dataclass(frozen=True)
class KernelAccuracies:
    """Cross-validated rank-1 accuracy per kernel in a bank, and the folds and seed behind it."""

    pis: tuple[float, ...]
    folds: int
    fold_seed: int

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
        if self.folds < 2 or self.fold_seed < 0:
            raise InputError(
                f"folds must be >= 2 and fold_seed >= 0, got {self.folds} and {self.fold_seed}"
            )

    @property
    def q(self) -> int:
        return len(self.pis)


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
        if self.accuracies is not None and self.accuracies.q != q:
            raise InputError(f"accuracies hold {self.accuracies.q} pis for a {q}-kernel bank")
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

    def fold(self, grams):
        """The map from coefficients A over a basis X to one block A_t per spec.

        embed(Y) = sum_t k_t(Y, X) A_t. np: A_t = beta_t A. sm: the fused cross
        kernel 0.5 (C_i + C_j) + tau (C_i - C_j) D, with D = K_i - K_j over X,
        applied to A splits into C_i (A/2 + tau D A) + C_j (A/2 - tau D A).
        ``grams`` yields the Gram of each spec over X, as for :meth:`fuse`. Only
        sm reads it, here, and its map holds the pair; np's holds no Gram. So a
        caller takes the map before its solve and keeps no other base Gram.
        """
        if self.variant == "np":
            return lambda A: tuple(b * A for b in self.weights if b != 0.0)
        Ki, Kj = grams

        def blocks(A):
            tDA = self.tau * ((Ki - Kj) @ A)
            return (0.5 * A + tDA, 0.5 * A - tDA)

        return blocks

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

    def describe(self) -> str:
        if self.variant == "np":
            terms = ", ".join(f"k{t}:{w!r}" for t, w in enumerate(self.weights) if w != 0.0)
            return f"np N={self.n_top} weights {terms}"
        return f"sm pair={self.pair} tau={self.tau!r}"


def config_from_dict(doc: dict, source) -> KernelSpec | MklConfig:
    """The KernelSpec ('kernel') or MklConfig ('mkl') a ``to_dict`` document describes.

    Bank entries parse as KernelSpecs. An unknown type, or a missing or malformed field, raises
    InputError prefixed by ``source`` (the document's file); the configs' checks raise as they are.
    """
    kind = doc.get("type")
    try:
        if kind == "kernel":
            return KernelSpec(doc["kind"], doc["width"])
        if kind == "mkl":
            acc = doc.get("accuracies")
            if acc is not None:  # only a missing key or null means none
                acc = KernelAccuracies(tuple(acc["pis"]), acc["folds"], acc["fold_seed"])
            return MklConfig(
                variant=doc["variant"],
                bank_specs=tuple(KernelSpec(s["kind"], s["width"]) for s in doc["bank_specs"]),
                weights=tuple(doc["weights"]) if doc.get("weights") is not None else None,
                n_top=doc.get("n_top"),
                pair=tuple(doc["pair"]) if doc.get("pair") is not None else None,
                tau=doc.get("tau"),
                accuracies=acc,
            )
    except InputError:  # a ValueError subclass that already names the problem
        raise
    except KeyError as exc:
        raise InputError(f"{source}: kernel_config lacks field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"{source}: malformed kernel_config: {exc}") from None
    raise InputError(f"{source}: unknown kernel config type {kind!r}")


def grams(specs, rows: np.ndarray, cols: np.ndarray | None = None):
    """Yield the Gram of each spec over one (rows, cols) pair, in order.

    Entry (u, v) of each block is k(rows[u], cols[v]). Every rbf block is
    evaluated from one squared-distance matrix, computed when the first block
    is taken and freed after the last rbf block; distances that overflow
    raise NumericError. Blocks are produced one at a time, so a caller that
    drops each block before taking the next holds only one.

    When cols is omitted each block is a square Gram over one basis, exactly
    symmetric as computed (rows @ rows.T runs as one syrk, and each entry's
    squared norms are summed in an order that commutes); the diagonal of an
    rbf Gram is pinned to exactly 1.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    same = cols is None
    if same:
        if not (rows.flags.c_contiguous or rows.flags.f_contiguous):
            # BLAS cannot read such a view, and rows @ rows.T would not run as a syrk
            rows = np.ascontiguousarray(rows)
        cols = rows
    else:
        cols = np.atleast_2d(np.asarray(cols, dtype=np.float64))
    if rows.shape[0] == 0 or cols.shape[0] == 0:
        raise InputError("empty sample list")
    if rows.shape[1] != cols.shape[1]:
        raise InputError(f"dimension mismatch: {rows.shape[1]} vs {cols.shape[1]}")
    specs = list(specs)
    last_rbf = max((t for t, s in enumerate(specs) if s.kind == "rbf"), default=-1)
    sq = None
    if last_rbf >= 0:
        sq = squared_distances(rows, cols)
        # an overflowed distance would give an all-zero, finite rbf block
        if not np.isfinite(sq).all():
            raise NumericError("squared distances contain non-finite entries")
        if same:
            np.fill_diagonal(sq, 0.0)
    for t, spec in enumerate(specs):
        # no later block reads the distances: the last rbf block is built in their buffer
        block = _block(spec, rows, cols, sq, in_place=t == last_rbf)
        if t == last_rbf:
            sq = None
        yield block
        del block  # a block the caller dropped is freed before the next one is built


def _block(spec: KernelSpec, rows, cols, sq, in_place: bool) -> np.ndarray:
    """One spec's kernel block, finite and read-only.

    rbf reads the pair's distances ``sq``, and with ``in_place`` overwrites
    them with the block instead of taking a new buffer.
    """
    if spec.kind == "rbf":
        # sq / -(2 w^2) is bit-identical to -sq / (2 w^2); exp then runs in place. A tiny
        # width's overflow (exp gives 0) or 0 / 0 warns nowhere: the check below reports NaN
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            K = np.divide(sq, -(2.0 * spec.width**2), out=sq if in_place else None)
            np.exp(K, out=K)
    elif spec.kind == "linear":
        K = rows @ cols.T
    else:
        K = (rows @ cols.T + 1.0) ** 2
    if not np.isfinite(K).all():
        raise NumericError("kernel matrix contains non-finite entries")
    K.setflags(write=False)
    return K


def gram(spec: KernelSpec, rows: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
    """Kernel matrix with entry (u, v) = k(rows[u], cols[v]); see :func:`grams`."""
    return next(grams((spec,), rows, cols))


def rms_width(ds, subset) -> float:
    """Root mean squared pairwise distance among the chosen samples.

    Used as the automatic rbf width; raises NumericError when all samples
    coincide or when the distance overflows or exceeds MAX_RBF_WIDTH.
    """
    subset = list(subset)
    if len(subset) < 2:
        raise InputError(f"need at least 2 samples for rms width, got {len(subset)}")
    X = ds.features[subset]
    m = len(subset)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        centered = X - X.mean(axis=0, keepdims=True)  # translation invariance
        # sum_{i<j} ||xi-xj||^2 == m * sum_i ||xi - mean||^2
        pair_sum = m * float(np.sum(centered * centered))
    n_pairs = m * (m - 1) // 2
    width = math.sqrt(pair_sum / n_pairs)  # inf or nan when the features overflow
    if not width <= MAX_RBF_WIDTH:
        raise NumericError(
            f"rms pairwise distance {width:.4g} is too large for an automatic rbf width "
            f"(at most {MAX_RBF_WIDTH:.4g})"
        )
    if width <= 0.0:
        raise NumericError("all samples identical: rms pairwise distance is zero")
    return width


def width_grid(base: float, q: int, lo: float = 0.1, hi: float = 10.0) -> list[float]:
    """q widths: base times geometrically spaced multipliers over [lo, hi]."""
    if not (0 < lo < hi):
        raise InputError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if q < 2:
        raise InputError(f"need q >= 2 widths, got {q}")
    if base <= 0:
        raise InputError(f"base width must be positive, got {base}")
    return [float(base * m) for m in np.geomspace(lo, hi, q)]
