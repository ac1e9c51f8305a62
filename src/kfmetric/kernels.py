"""Kernel definitions, Gram matrices and width heuristics.

A Gram is a plain read-only float64 ndarray, checked finite when it is built.
:func:`grams` builds the blocks of several specs over one (rows, cols) pair
from one squared-distance matrix. How Grams are combined is not known here:
``MklConfig.fuse`` and ``MklConfig.fold`` hold both fusion rules.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

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
    """Parametric kernel: 'rbf' with width sigma, 'linear', or 'poly2'.

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

    @property
    def specs(self) -> tuple["KernelSpec", ...]:
        """The base kernels this kernel is built from: itself."""
        return (self,)

    def fuse(self, grams):
        """The Gram of :attr:`specs` over a basis, unchanged (see ``MklConfig.fuse``)."""
        return grams[0]

    def fold(self, A: np.ndarray, grams) -> tuple:
        """The coefficient block of :attr:`specs` over a basis X: embed(Y) = k(Y, X) A."""
        return (A,)

    def to_dict(self) -> dict:
        return {"type": "kernel", "kind": self.kind, "width": self.width}

    @staticmethod
    def from_dict(d: dict) -> "KernelSpec":
        return KernelSpec(kind=d["kind"], width=d["width"])


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
        # sq / -(2 w^2) is bit-identical to -sq / (2 w^2); exp then runs in place
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
