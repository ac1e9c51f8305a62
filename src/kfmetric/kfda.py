"""Fisher discriminant analysis in kernel form.

From a square training Gram matrix K and a class index we form the two
scatter surrogates the solver reads: the n x n within-class matrix Q,
built from class-centered kernel blocks, and the n x c factor M of the
between-class matrix P = M M^T, the count-weighted spread of the per-class
mean kernel columns around the global mean. The discriminant expansion
coefficients are the leading eigenvectors of the pencil
``P a = lambda (Q + eps I) a``.

P = M M^T has rank at most c - 1 for c classes, so the pencil is reduced
to a c x c symmetric eigenproblem after whitening M by Q + eps I; the cost
is one Cholesky factorization plus O(n^2 c + c^3), not a dense n x n
generalized eigensolve. With ``eps == 0`` (diagnostic path only) Q is
singular whenever n > rank, so M is whitened over the numerical range of Q.

The solve calls LAPACK's potrf, trtrs and syevr directly, with the arguments
scipy.linalg's cholesky, solve_triangular and eigh pass them, so its bits are
those of the wrappers; only the eps == 0 range basis goes through
``scipy.linalg.eigh``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .data import ClassIndex, Dataset, SplitPlan, index_classes
from .errors import InputError, NumericError
from .kernels import KernelSpec, grams

DEFAULT_EPS = 1e-7

# relative eigenvalue cutoff defining the numerical range of Q on the eps=0 path
RANGE_RTOL = 1e-10

MODEL_FORMAT = "kfmetric-model"
MODEL_VERSION = 1


@dataclass(frozen=True)
class ScatterPair:
    """Within-class scatter Q and between-class factor M (P = M M^T) over a Gram.

    Built only by :func:`build_scatter`, which checks both finite.
    """

    Q: np.ndarray  # (n, n)
    M: np.ndarray  # (n, c)

    @property
    def P(self) -> np.ndarray:
        """The n x n between-class scatter, formed on demand; the solver needs only M."""
        return self.M @ self.M.T

    @property
    def n_classes(self) -> int:
        return self.M.shape[1]


@dataclass(frozen=True)
class KfdaModel:
    """Trained discriminant model.

    A holds one unit-norm expansion-coefficient column per discriminant,
    sign-fixed so each column's largest-magnitude entry is positive.
    :func:`train` and :func:`load_model` attach ``train_basis`` X (the
    retained training feature rows), ``kernel_config``, and ``terms``: the
    configuration folded into pairs (kernel spec k_t, A_t) so that every
    model embeds as ``sum_t k_t(Y, X) A_t``. A bare eigen solution from
    :func:`solve_kfda` leaves all three unset.
    """

    A: np.ndarray
    eigvals: np.ndarray
    regularizer: float
    p: int
    train_basis: np.ndarray | None = None
    kernel_config: object | None = None
    terms: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.float64)
        if A.ndim != 2 or A.shape[1] != self.p:
            raise NumericError(f"A must be n x p with p={self.p}, got {A.shape}")
        if not np.isfinite(A).all():
            raise NumericError("A contains non-finite entries")
        vals = np.asarray(self.eigvals, dtype=np.float64)
        if vals.shape != (self.p,):
            raise NumericError(f"need {self.p} eigenvalues, got shape {vals.shape}")
        if (vals[1:] > vals[:-1]).any():
            raise NumericError("eigenvalues must be non-increasing")
        A.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "eigvals", vals)

    @property
    def n_train(self) -> int:
        return self.A.shape[0]

    def truncated(self, p: int) -> "KfdaModel":
        """Model restricted to the p leading discriminants."""
        if not 1 <= p <= self.p:
            raise InputError(f"p must be in 1..{self.p}, got {p}")
        return replace(
            self,
            A=self.A[:, :p],
            eigvals=self.eigvals[:p],
            p=p,
            terms=tuple((spec, A_t[:, :p]) for spec, A_t in self.terms),
        )


def _with_kernel(model: KfdaModel, X: np.ndarray, kernel, grams) -> KfdaModel:
    """Attach the training basis and kernel config, folded over X's ``grams`` into terms."""
    terms = tuple(zip(kernel.specs, kernel.fold(model.A, grams)))
    return replace(model, train_basis=X, kernel_config=kernel, terms=terms)


def build_scatter(K, idx: ClassIndex) -> ScatterPair:
    """Form M and Q, checked finite, from a square training Gram.

    K rows/columns must follow exactly the subset order the ClassIndex was
    built over. With m_i the class-i mean column (the average of K's
    columns for class i) and m their count-weighted mean, column i of M is
    sqrt(n_i) (m_i - m), so P = M M^T; Q sums the class-centered column
    blocks multiplied by their transposes. A non-finite Gram entry, or a Q
    that overflows, raises NumericError.
    """
    K = np.asarray(K, dtype=np.float64)
    n = idx.n_total
    if K.shape != (n, n):
        raise InputError(f"Gram shape {K.shape} does not match indexed samples ({n})")
    if 0 in idx.counts:
        raise InputError("class with zero samples")
    d = idx.design
    S = np.zeros((n, idx.n_classes))
    S[np.arange(n), d.labels] = d.inv_size
    # a non-finite entry or an overflow is reported once, by the check below
    with np.errstate(all="ignore"):
        means = K @ S
        # center before multiplying: K K^T minus a rank-c correction would cancel
        Kc = K - means[:, d.labels]
        Q = Kc @ Kc.T  # A @ A.T runs as one syrk, which fills an exactly symmetric result
        gm = means @ d.weights
        M = (means - gm[:, None]) * d.sqrt_counts
    if not (np.isfinite(Q).all() and np.isfinite(M).all()):
        raise NumericError("scatter matrices Q and M contain non-finite entries")
    return ScatterPair(Q=Q, M=M)


# The LAPACK routines of the Fisher solve, looked up once. Each is called with
# the arguments scipy.linalg's cholesky, solve_triangular and eigh pass it, so
# the results are those wrappers' bits without their per-call checks.
_POTRF, _TRTRS, _SYEVR, _SYEVR_LWORK = scipy.linalg.get_lapack_funcs(
    ("potrf", "trtrs", "syevr", "syevr_lwork"), dtype=np.float64
)


def _solve_failed(reason) -> NumericError:
    return NumericError(f"generalized eigensolver failed: {reason}")


def _trsm(L: np.ndarray, B: np.ndarray, trans: int) -> np.ndarray:
    """L^-1 B (trans 0) or L^-T B (trans 1) for the Fortran-ordered lower factor L potrf returns."""
    X, info = _TRTRS(L, B, lower=1, trans=trans, unitdiag=0, overwrite_b=0)
    if info:
        raise _solve_failed(f"singular matrix: resolution failed at diagonal {info - 1}")
    return X


def solve_kfda(sc: ScatterPair, p: int, eps: float = DEFAULT_EPS) -> KfdaModel:
    """Leading discriminants of the regularized between/within pencil.

    Solves ``P a = lambda (Q + eps I) a`` through the factor P = M M^T:
    whiten M by the within-class metric (Y = L^-1 M for the Cholesky factor
    L of Q + eps I, or Y = W^T M for a whitening basis W of range(Q) when
    eps == 0), take eigenpairs (lambda, v) of the c x c matrix Y^T Y, and
    map them back to a = L^-T Y v (or W Y v). Keeps the p largest
    eigenpairs. Columns of A are normalized to unit Euclidean norm with the
    largest-magnitude entry positive; ties in eigenvalue order keep the
    underlying solver's output order.

    LAPACK runs directly: potrf factors Q + eps I (built column-major, so it
    is factored in place), trtrs solves for Y and for A, and syevr, with
    range 'A' and the workspace eigh queries, solves the c x c problem. The
    bits equal those of scipy.linalg's cholesky, solve_triangular and eigh,
    and a failed factorization raises the same NumericError.
    """
    c = sc.n_classes
    if not 1 <= p <= c - 1:
        raise InputError(f"p must be in 1..c-1 = 1..{c - 1}, got {p}")
    if eps < 0:
        raise InputError(f"regularizer must be non-negative, got {eps}")
    n = sc.Q.shape[0]
    if eps > 0:
        # Q + eps I in potrf's column-major layout, so it is factored in place;
        # x + 0.0, then eps on the diagonal, gives the bits of Q + eps * eye(n)
        L = np.add(sc.Q, 0.0, order="F")
        diag = np.arange(n)
        L[diag, diag] += eps
        L, info = _POTRF(L, lower=1, overwrite_a=1, clean=1)
        if info:
            raise _solve_failed(f"{info}-th leading minor of the array is not positive definite")
        Y = _trsm(L, sc.M, trans=0)
    else:
        try:
            s, U = scipy.linalg.eigh(sc.Q)
        except scipy.linalg.LinAlgError as exc:
            raise _solve_failed(exc) from exc
        smax = float(s[-1])
        if smax <= 0:
            raise NumericError("Q has no positive spectrum; cannot solve with eps=0")
        keep = s > RANGE_RTOL * smax
        W = U[:, keep] / np.sqrt(s[keep])  # whitening basis for range(Q)
        if p > W.shape[1]:
            raise NumericError(
                f"only {W.shape[1]} directions available in the range of Q, "
                f"cannot extract p={p}"
            )
        Y = W.T @ sc.M
    work, iwork, _ = _SYEVR_LWORK(c, lower=1)  # the workspace query eigh makes
    vals, V, _, _, info = _SYEVR(
        Y.T @ Y, compute_v=1, range="A", lower=1, lwork=int(work), liwork=iwork, overwrite_a=0
    )
    if info:  # a failed workspace query shows here too, as an illegal lwork
        raise _solve_failed("Internal Error.")
    # syevr returns ascending order; reverse for descending eigenvalues
    vals = vals[::-1][:p]
    Z = Y @ V[:, ::-1][:, :p]
    A = _trsm(L, Z, trans=1) if eps > 0 else W @ Z
    norms = np.linalg.norm(A, axis=0)
    if (norms == 0).any():
        raise NumericError("eigensolver returned a zero eigenvector")
    A /= norms
    peak = A[np.argmax(np.abs(A), axis=0), np.arange(p)]
    A[:, peak < 0] *= -1.0
    return KfdaModel(
        A=A,
        eigvals=np.maximum(vals, 0.0),
        regularizer=eps,
        p=p,
    )


def train(
    ds: Dataset,
    plan: SplitPlan,
    kernel,
    eps: float = DEFAULT_EPS,
    p: int | None = None,
) -> KfdaModel:
    """Fit a discriminant model on the plan's training identities.

    ``kernel`` is anything exposing specs/fuse/fold (a KernelSpec or a
    learned multi-kernel configuration). ``p`` defaults to c - 1.
    """
    train_idx = sorted(ds.samples_of(plan.train_ids))
    if not train_idx:
        raise InputError("no training samples for the plan's identities")
    idx = index_classes(ds, train_idx)
    if idx.n_classes < 2:
        raise InputError(f"training needs at least 2 classes, got {idx.n_classes}")
    p_eff = idx.n_classes - 1 if p is None else p
    X = ds.features[train_idx]
    base = list(grams(kernel.specs, X))  # one distance matrix for every rbf
    sc = build_scatter(kernel.fuse(base), idx)
    return _with_kernel(solve_kfda(sc, p_eff, eps), X, kernel, base)


def save_model(model: KfdaModel, path, meta: dict | None = None) -> None:
    """Persist a trained model as versioned JSON; floats round-trip exactly."""
    if model.train_basis is None or model.kernel_config is None:
        raise InputError("only fully trained models (with basis and kernel) persist")
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
    with open(path, "w") as fh:
        json.dump(doc, fh)
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
    field, or holds a field of the wrong type or shape raises InputError.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot open model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
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
    n, d, p = doc["n"], doc["d"], doc["p"]
    if p < 1:
        raise InputError(f"{path}: field 'p' must be >= 1, got {p}")
    cfg_doc = doc["kernel_config"]
    if cfg_doc.get("type") == "kernel":
        parse = KernelSpec.from_dict
    elif cfg_doc.get("type") == "mkl":
        from .mkl import MklConfig  # deferred: mkl depends on this module

        parse = MklConfig.from_dict
    else:
        raise InputError(f"{path}: unknown kernel config type {cfg_doc.get('type')!r}")
    try:
        kernel = parse(cfg_doc)
    except InputError:  # a ValueError subclass that already names the problem
        raise
    except KeyError as exc:
        raise InputError(f"{path}: kernel_config lacks field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed kernel_config: {exc}") from None
    A = _model_array(doc, "A", (n, p), path)
    eigvals = _model_array(doc, "eigvals", (p,), path)
    X = _model_array(doc, "train_features", (n, d), path)
    model = KfdaModel(A=A, eigvals=eigvals, regularizer=doc["regularizer"], p=p)
    base = grams(kernel.specs, X)  # lazy: fold reads only sm's pair
    return _with_kernel(model, X, kernel, base), doc["meta"]
