"""Fisher discriminant analysis in kernel form.

From a square training Gram matrix K and a class index we form the two
scatter surrogates the solver reads: the n x n within-class matrix Q,
sum_i K_i (I - 1/n_i) K_i^T over each class's Gram columns K_i, and the
n x c factor M of the between-class matrix P = M M^T, the count-weighted
spread of the per-class mean kernel columns around the global mean. The
discriminant expansion coefficients are the leading eigenvectors of the
pencil ``P a = lambda (Q + eps I) a``.

I - 1/n_i is a projection of rank n_i - 1, so Q = B B^T for the n x (n - c)
matrix B of orthonormal within-class contrasts of K's columns: one syrk with
half of a Gram's columns when every class has two samples, and no centered
n x n copy of K. The class means come from the same column takes.

P = M M^T has rank at most c - 1 for c classes, so the pencil is reduced
to a c x c symmetric eigenproblem after whitening M by Q + eps I; the cost
is one Cholesky factorization plus O(n^2 c + c^3), not a dense n x n
generalized eigensolve. With ``eps == 0`` (diagnostic path only) Q is
singular whenever n > rank, so M is whitened over the numerical range of Q.

The solve calls LAPACK's potrf, trtrs and syevd directly, with the arguments
scipy.linalg's cholesky, solve_triangular and eigh (on its syevd path) pass
them, so its bits are those of the wrappers. syevd is the one symmetric
eigensolver, for the c x c problem and for the eps == 0 range basis.

:func:`build_scatter` and :func:`solve_kfda` take a stack of Grams over one
class index, numpy style: a (..., n, n) Gram gives a ScatterPair of
(..., n, n) and (..., n, c) matrices and a solution of (..., n, p)
coefficients. Every matrix of a stack gets the bits a 2-D call on it gets,
and a 2-D input gives 2-D results. Cross-validation scores a fold's
candidate kernels as one stack; only the LAPACK calls loop over it.
A model uses its kernel configuration only through ``specs``, ``fuse``,
``fold`` and ``to_dict``, and :func:`load_model` reads one back by
:func:`~kfmetric.kernels.config_from_dict`, so no configuration type is named here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .data import ClassIndex, Dataset, SplitPlan, index_classes, open_output
from .errors import InputError, NumericError
from .kernels import config_from_dict, grams

DEFAULT_EPS = 1e-7

# relative eigenvalue cutoff defining the numerical range of Q on the eps=0 path
RANGE_RTOL = 1e-10

MODEL_FORMAT = "kfmetric-model"
MODEL_VERSION = 1


@dataclass(frozen=True)
class ScatterPair:
    """Within-class scatter Q and between-class factor M (P = M M^T) over a Gram.

    Built only by :func:`build_scatter`, which checks both finite. A stack of
    pairs holds the stack axes in front of the last two.
    """

    Q: np.ndarray  # (..., n, n)
    M: np.ndarray  # (..., n, c)

    @property
    def P(self) -> np.ndarray:
        """The n x n between-class scatter, formed on demand; the solver needs only M."""
        return self.M @ self.M.swapaxes(-1, -2)

    @property
    def n_classes(self) -> int:
        return self.M.shape[-1]


class KfdaSolution(NamedTuple):
    """The p leading discriminants of a Fisher pencil (or a stack), from :func:`solve_kfda`."""

    A: np.ndarray  # (..., n, p) unit-norm expansion coefficients
    eigvals: np.ndarray  # (..., p) non-increasing


@dataclass(frozen=True)
class KfdaModel:
    """Trained discriminant model: the learned metric over a retained training basis.

    A holds one unit-norm expansion-coefficient column per discriminant,
    sign-fixed so each column's largest-magnitude entry is positive, and
    ``eigvals`` the matching non-increasing eigenvalues. ``train_basis`` X
    holds the retained training feature rows, and ``terms`` the kernel
    configuration folded into pairs (kernel spec k_t, A_t) so that every
    model embeds as ``sum_t k_t(Y, X) A_t``. Only :func:`train` and
    :func:`load_model` build one, from a solution or a file they have
    checked; A and ``eigvals`` are read-only.
    """

    A: np.ndarray
    eigvals: np.ndarray
    regularizer: float
    train_basis: np.ndarray
    kernel_config: object
    terms: tuple = field(compare=False, repr=False)

    @property
    def n_train(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.A.shape[1]


def _with_kernel(sol: KfdaSolution, regularizer: float, X: np.ndarray, kernel, grams) -> KfdaModel:
    """The model of a solution over basis X, its kernel folded over X's ``grams`` into terms."""
    terms = tuple(zip(kernel.specs, kernel.fold(sol.A, grams)))
    sol.A.setflags(write=False)
    sol.eigvals.setflags(write=False)
    return KfdaModel(sol.A, sol.eigvals, regularizer, X, kernel, terms)


def build_scatter(K, idx: ClassIndex) -> ScatterPair:
    """Form M and Q, checked finite, from a square training Gram or a stack of them.

    K rows/columns must follow exactly the subset order the ClassIndex was
    built over. With m_i the class-i mean column (the average of K's
    columns for class i) and m their count-weighted mean, column i of M is
    sqrt(n_i) (m_i - m), so P = M M^T. Q = sum_i K_i (I - 1/n_i) K_i^T over
    each class's columns K_i is formed as B B^T, where B holds n - c
    orthonormal (Helmert) contrasts of the class columns: for members
    k_0 .. k_{s-1} of a class, h_j = (k_0 + ... + k_{j-1} - j k_j) / sqrt(j (j + 1))
    for j = 1 .. s - 1, so a singleton class adds none. One column take per
    member rank feeds both the class sums and the contrasts. A non-finite
    Gram entry, or a Q that overflows, raises NumericError.

    A (..., n, n) stack of Grams gives a pair of (..., n, n) and (..., n, c)
    stacks: the contrasts and class sums run elementwise over the whole
    stack, and B B^T is one syrk per Gram, so each matrix holds the bits a
    2-D call on its Gram gives. A 2-D K gives 2-D Q and M.
    """
    K = np.asarray(K, dtype=np.float64)
    n = idx.n_total
    if K.shape[-2:] != (n, n):
        raise InputError(f"Gram shape {K.shape} does not match indexed samples ({n})")
    lead = K.shape[:-2]
    means = np.empty(lead + (n, idx.n_classes)) if len(idx.groups) > 1 else None
    B = np.empty(lead + (n, n - idx.n_classes))
    start = 0
    # a non-finite entry or an overflow is reported once, by the check below
    with np.errstate(all="ignore"):
        for classes, members in idx.groups:
            size, m = members.shape
            total = K.take(members[0], axis=-1)  # running class sums
            for j in range(1, size):
                col = K.take(members[j], axis=-1)  # each class's j-th member column
                h = B[..., start : start + m]  # h_j = (total - j col) / sqrt(j (j + 1))
                np.subtract(total, col if j == 1 else j * col, out=h)
                h *= 1.0 / math.sqrt(j * (j + 1))
                total += col
                start += m
            total /= size
            if means is None:  # one class size: the group holds every class, in order
                means = total
            else:
                means[..., classes] = total
        # A @ A.T runs as one syrk per matrix, which fills an exactly symmetric result
        Q = B @ B.swapaxes(-1, -2)
        M = means - (means @ idx.weights)[..., None]
        M *= idx.sqrt_counts
    if not (np.isfinite(Q).all() and np.isfinite(M).all()):
        raise NumericError("scatter matrices Q and M contain non-finite entries")
    return ScatterPair(Q=Q, M=M)


# The LAPACK routines of the Fisher solve, looked up once. Each is called with
# the arguments scipy.linalg's cholesky, solve_triangular and eigh (on its
# syevd path) pass it, so the results are those wrappers' bits without their
# per-call checks.
_POTRF, _TRTRS, _SYEVD, _SYEVD_LWORK = scipy.linalg.get_lapack_funcs(
    ("potrf", "trtrs", "syevd", "syevd_lwork"), dtype=np.float64
)


def _solve_failed(reason) -> NumericError:
    return NumericError(f"generalized eigensolver failed: {reason}")


def _column_major(shape) -> np.ndarray:
    """An empty stack of the given (..., rows, cols) shape whose every matrix is column-major.

    LAPACK works on such a matrix in place; a 2-D shape gives one Fortran-ordered array.
    """
    return np.empty(shape[:-2] + shape[:-3:-1]).swapaxes(-1, -2)


def _each(X: np.ndarray) -> np.ndarray:
    """A (..., rows, cols) stack as a (k, rows, cols) one, k >= 1: a view of the arrays made here.

    Its matrices, in stack order, are those LAPACK runs on; a 2-D X is the one matrix.
    """
    return X.reshape((-1,) + X.shape[-2:])


def _trsm(L: np.ndarray, B: np.ndarray, trans: int) -> None:
    """Overwrite a column-major B by L^-1 B (trans 0) or L^-T B (trans 1), L from potrf."""
    _, info = _TRTRS(L, B, lower=1, trans=trans, unitdiag=0, overwrite_b=1)
    if info:
        raise _solve_failed(f"singular matrix: resolution failed at diagonal {info - 1}")


def _eigh(S: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each symmetric matrix of a column-major stack S.

    LAPACK syevd, lower triangle, with the workspace scipy.linalg.eigh
    queries for it, queried once for the stack. Each matrix of S is
    overwritten in place by its eigenvectors.
    """
    n = S.shape[-1]
    work, iwork, _ = _SYEVD_LWORK(n, compute_v=1, lower=1)
    vals = np.empty(S.shape[:-1])
    for S_k, vals_k in zip(_each(S), vals.reshape(-1, n)):
        vals_k[...], _, info = _SYEVD(
            S_k, compute_v=1, lower=1, lwork=int(work), liwork=iwork, overwrite_a=1
        )
        if info:  # a failed workspace query shows here too, as an illegal lwork
            raise _solve_failed(f"syevd did not converge (info {info})")
    return vals


def solve_kfda(sc: ScatterPair, p: int, eps: float = DEFAULT_EPS) -> KfdaSolution:
    """Leading discriminants of the regularized between/within pencil, or of a stack of pencils.

    Solves ``P a = lambda (Q + eps I) a`` through the factor P = M M^T:
    whiten M by the within-class metric (Y = L^-1 M for the Cholesky factor
    L of Q + eps I, or Y = W^T M for a whitening basis W of range(Q) when
    eps == 0), take eigenpairs (lambda, v) of the c x c matrix Y^T Y, and
    map them back to a = L^-T Y v (or W Y v). Keeps the p largest
    eigenpairs. Columns of A are normalized to unit Euclidean norm with the
    largest-magnitude entry positive; ties in eigenvalue order keep the
    underlying solver's output order. A column whose norm is zero or not
    finite raises NumericError.

    LAPACK runs directly: potrf factors Q + eps I (built column-major, so it
    is factored in place), trtrs solves for Y and for A in place, and syevd,
    with the workspace eigh queries, solves the c x c problem in place. The
    bits equal those of scipy.linalg's cholesky, solve_triangular and eigh
    on its syevd path, and a failed factorization raises the same
    NumericError.

    A stacked pair (Q of (..., n, n), M of (..., n, c), as :func:`build_scatter`
    makes from a stack of Grams) gives A of (..., n, p) and eigenvalues of
    (..., p). Only the LAPACK calls (and the eps == 0 range basis) loop over
    the stack; Q + eps I, Y^T Y, the norms and the sign fix run once on it.
    Each pencil gets the bits a 2-D call on it gets, and the first pencil in
    stack order that fails raises. A 2-D pair gives 2-D results.
    """
    c = sc.n_classes
    if not 1 <= p <= c - 1:
        raise InputError(f"p must be in 1..c-1 = 1..{c - 1}, got {p}")
    if not 0 <= eps < math.inf:
        raise InputError(f"regularizer must be non-negative and finite, got {eps}")
    n = sc.Q.shape[-1]
    lead = sc.Q.shape[:-2]
    if eps > 0:
        # Q + eps I in potrf's column-major layout, so it is factored in place;
        # x + 0.0, then eps on the diagonal, gives the bits of Q + eps * eye(n).
        # Q is exactly symmetric (one syrk), so it is read in its own row-major
        # order and written through L's row-major transpose: both passes contiguous
        L = _column_major(sc.Q.shape)
        np.add(sc.Q, 0.0, out=L.swapaxes(-1, -2))
        diag = np.arange(n)
        L[..., diag, diag] += eps
        Y = _column_major(sc.M.shape)
        Y[...] = sc.M
        for L_k, Y_k in zip(_each(L), _each(Y)):
            _, info = _POTRF(L_k, lower=1, overwrite_a=1, clean=1)
            if info:
                raise _solve_failed(
                    f"{info}-th leading minor of the array is not positive definite"
                )
            _trsm(L_k, Y_k, trans=0)
        # Y^T Y is one exactly symmetric syrk result per pencil, so its transpose
        # is the same matrix in the column-major order syevd overwrites in place
        G = (Y.swapaxes(-1, -2) @ Y).swapaxes(-1, -2)
    else:
        W, Y = [], []
        for Q_k, M_k in zip(_each(sc.Q), _each(sc.M)):
            U = np.array(Q_k, order="F")
            s = _eigh(U)
            smax = float(s[-1])
            if smax <= 0:
                raise NumericError("Q has no positive spectrum; cannot solve with eps=0")
            keep = s > RANGE_RTOL * smax
            W.append(U[:, keep] / np.sqrt(s[keep]))  # whitening basis for range(Q)
            if p > W[-1].shape[1]:
                raise NumericError(
                    f"only {W[-1].shape[1]} directions available in the range of Q, "
                    f"cannot extract p={p}"
                )
            Y.append(W[-1].T @ M_k)
        G = np.stack([Yi.T @ Yi for Yi in Y]).reshape(lead + (c, c)).swapaxes(-1, -2)
    # syevd returns ascending order; reverse for descending eigenvalues
    vals = _eigh(G)[..., ::-1][..., :p]
    V = G[..., ::-1][..., :p]  # G now holds the eigenvectors
    if eps > 0:
        A = _column_major(lead + (n, p))
        A[...] = Y @ V
        for L_k, A_k in zip(_each(L), _each(A)):
            _trsm(L_k, A_k, trans=1)
    else:
        A = np.stack([W_k @ (Y_k @ V_k) for W_k, Y_k, V_k in zip(W, Y, _each(V))])
        A = A.reshape(lead + (n, p))
    with np.errstate(over="ignore"):  # an overflowing norm is reported below
        norms = np.linalg.norm(A, axis=-2)
    if not (np.isfinite(norms) & (norms > 0)).all():
        raise NumericError("eigensolver returned a zero or non-finite eigenvector")
    A /= norms[..., None, :]
    each = _each(A)
    peak = each[np.arange(len(each))[:, None], np.argmax(np.abs(each), axis=1), np.arange(p)]
    np.negative(each, out=each, where=(peak < 0)[:, None, :])  # flips each negative-peak column
    return KfdaSolution(A, np.maximum(vals, 0.0))


def train(
    ds: Dataset,
    plan: SplitPlan,
    kernel,
    eps: float = DEFAULT_EPS,
    p: int | None = None,
) -> KfdaModel:
    """Fit a discriminant model on the plan's training identities.

    ``kernel`` is a kernel configuration (see :mod:`kfmetric.kernels`); ``p`` defaults to c - 1.
    """
    train_idx = ds.samples_of(plan.train_ids)
    if not train_idx:
        raise InputError("no training samples for the plan's identities")
    idx = index_classes(ds, train_idx)
    if idx.n_classes < 2:
        raise InputError(f"training needs at least 2 classes, got {idx.n_classes}")
    p_eff = idx.n_classes - 1 if p is None else p
    X = ds.features[train_idx]
    base = list(grams(kernel.specs, X))  # one distance matrix for every rbf
    sc = build_scatter(kernel.fuse(base), idx)
    return _with_kernel(solve_kfda(sc, p_eff, eps), eps, X, kernel, base)


def save_model(model: KfdaModel, path, meta: dict | None = None) -> None:
    """Persist a trained model as versioned JSON; floats round-trip exactly."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "n": int(model.n_train),
        "d": int(model.train_basis.shape[1]),
        "p": int(model.p),
        "regularizer": model.regularizer,
        "eigvals": model.eigvals.tolist(),
        "A": model.A.tolist(),
        "train_features": model.train_basis.tolist(),
        "kernel_config": model.kernel_config.to_dict(),
        "meta": meta or {},
    }
    text = json.dumps(doc)  # the C encoder; json.dump would run the pure-Python one
    with open_output(path, "model file") as fh:
        fh.write(text)
        fh.write("\n")


# required top-level fields of a model document and the JSON types they take
_MODEL_FIELDS = {
    "n": int,
    "d": int,
    "p": int,
    "regularizer": (int, float),
    "eigvals": list,
    "A": list,
    "train_features": list,
    "kernel_config": dict,
    "meta": dict,
}


def _model_array(doc: dict, key: str, shape: tuple, path) -> np.ndarray:
    """A model-document array of the expected shape with finite entries."""
    try:
        arr = np.array(doc[key], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: {key!r} is not a numeric array: {exc}") from None
    if arr.shape != shape:
        raise InputError(f"{path}: {key!r} has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"{path}: {key!r} has non-finite entries")
    return arr


def load_model(path) -> tuple[KfdaModel, dict]:
    """Load a persisted model; returns (model, meta).

    A document that is not a model of this format and version, lacks a
    field, holds a field of the wrong type or shape, has a negative or
    non-finite regularizer (the solver's rule), or lists increasing
    eigenvalues raises InputError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot open model file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: not a valid model file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise InputError(f"{path}: not a {MODEL_FORMAT} file")
    if doc.get("version") != MODEL_VERSION:
        raise InputError(f"{path}: unsupported model version {doc.get('version')}")
    doc.setdefault("meta", {})
    for key, kind in _MODEL_FIELDS.items():
        if key not in doc:
            raise InputError(f"{path}: model file lacks field {key!r}")
        if isinstance(doc[key], bool) or not isinstance(doc[key], kind):
            raise InputError(f"{path}: field {key!r} has the wrong type")
    n, d, p, eps = doc["n"], doc["d"], doc["p"], doc["regularizer"]
    if p < 1:
        raise InputError(f"{path}: field 'p' must be >= 1, got {p}")
    if not 0 <= eps < math.inf:
        raise InputError(f"{path}: 'regularizer' must be non-negative and finite, got {eps}")
    kernel = config_from_dict(doc["kernel_config"], path)
    A = _model_array(doc, "A", (n, p), path)
    eigvals = _model_array(doc, "eigvals", (p,), path)
    if (eigvals[1:] > eigvals[:-1]).any():
        raise InputError(f"{path}: 'eigvals' must be non-increasing")
    X = _model_array(doc, "train_features", (n, d), path)
    base = grams(kernel.specs, X)  # lazy: fold reads only sm's pair
    return _with_kernel(KfdaSolution(A, eigvals), eps, X, kernel, base), doc["meta"]
