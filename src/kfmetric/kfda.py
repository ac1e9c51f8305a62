"""Fisher discriminant analysis in kernel form.

From a square training Gram matrix K and a class index we form two n x n
scatter surrogates: a between-class matrix P built from per-class mean
kernel columns, and a within-class matrix Q built from class-centered
kernel blocks. The discriminant expansion coefficients are the leading
eigenvectors of the pencil ``P a = lambda (Q + eps I) a``.

P = M M^T has rank at most c - 1 for c classes, so the pencil is reduced
to a c x c symmetric eigenproblem after whitening M by Q + eps I; the cost
is one Cholesky factorization plus O(n^2 c + c^3), not a dense n x n
generalized eigensolve. With ``eps == 0`` (diagnostic path only) Q is
singular whenever n > rank, so M is whitened over the numerical range of Q.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .data import ClassIndex, Dataset, SplitPlan, index_classes
from .errors import InputError, NumericError
from .kernels import KernelMatrix, KernelSpec

DEFAULT_EPS = 1e-7

# relative eigenvalue cutoff defining the numerical range of Q on the eps=0 path
RANGE_RTOL = 1e-10

MODEL_FORMAT = "kfmetric-model"
MODEL_VERSION = 1


@dataclass(frozen=True)
class ScatterPair:
    """Between-class (P) and within-class (Q) scatter surrogates over a Gram."""

    P: np.ndarray
    Q: np.ndarray
    M: np.ndarray  # (n, c) between-class factor, P = M M^T
    class_means: np.ndarray  # (n, c), column i is the class-i mean kernel column
    global_mean: np.ndarray  # (n,)
    counts: tuple[int, ...]

    def __post_init__(self):
        n = self.P.shape[0]
        if self.P.shape != (n, n) or self.Q.shape != (n, n):
            raise NumericError("scatter matrices must be square and equal-sized")
        if self.M.shape != (n, self.class_means.shape[1]):
            raise NumericError("between-class factor M must be n x c")
        for S, name in ((self.P, "P"), (self.Q, "Q")):
            # negated so that NaN entries fail the check too
            if not np.abs(S - S.T).max() <= 1e-10:
                raise NumericError(f"{name} not symmetric within 1e-10")
        weighted = self.class_means @ (np.asarray(self.counts, dtype=np.float64) / sum(self.counts))
        if not np.allclose(weighted, self.global_mean, atol=1e-10, rtol=0):
            raise NumericError("class means inconsistent with global mean")

    @property
    def n_classes(self) -> int:
        return self.class_means.shape[1]


@dataclass(frozen=True)
class KfdaModel:
    """Trained discriminant model.

    A holds one unit-norm expansion-coefficient column per discriminant,
    sign-fixed so each column's largest-magnitude entry is positive.
    ``train_basis`` (the retained training feature rows) and
    ``kernel_config`` are attached by :func:`train`; a bare eigen solution
    from :func:`solve_kfda` leaves them as None.
    """

    A: np.ndarray
    eigvals: np.ndarray
    regularizer: float
    p: int
    train_basis: np.ndarray | None = None
    kernel_config: object | None = None

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.float64)
        if A.ndim != 2 or A.shape[1] != self.p:
            raise NumericError(f"A must be n x p with p={self.p}, got {A.shape}")
        if not np.isfinite(A).all():
            raise NumericError("A contains non-finite entries")
        vals = np.asarray(self.eigvals, dtype=np.float64)
        if vals.shape != (self.p,):
            raise NumericError(f"need {self.p} eigenvalues, got shape {vals.shape}")
        if np.any(np.diff(vals) > 0):
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
        return replace(self, A=self.A[:, :p], eigvals=self.eigvals[:p], p=p)


def build_scatter(K, idx: ClassIndex) -> ScatterPair:
    """Form P, Q, and mean kernel columns from a square training Gram.

    K rows/columns must follow exactly the subset order the ClassIndex was
    built over. The class-i mean column is the average of K's columns for
    class i; P is the count-weighted outer-product spread of those columns
    around the global mean, and Q sums the class-centered column blocks
    multiplied by their transposes.
    """
    K = K.values if isinstance(K, KernelMatrix) else np.asarray(K, dtype=np.float64)
    n = idx.n_total
    if K.shape != (n, n):
        raise InputError(f"Gram shape {K.shape} does not match indexed samples ({n})")
    if any(c == 0 for c in idx.counts):
        raise InputError("class with zero samples")
    c = idx.n_classes
    counts = np.asarray(idx.counts, dtype=np.float64)
    labels = np.empty(n, dtype=np.intp)
    labels[np.concatenate(idx.members)] = np.repeat(np.arange(c), idx.counts)
    S = np.zeros((n, c))
    S[np.arange(n), labels] = 1.0 / counts[labels]
    means = K @ S
    # center before multiplying: K K^T minus a rank-c correction would cancel
    Kc = K - means[:, labels]
    Q = Kc @ Kc.T  # A @ A.T runs as one syrk, which fills an exactly symmetric result
    gm = means @ (counts / n)
    M = (means - gm[:, None]) * np.sqrt(counts)
    P = M @ M.T
    return ScatterPair(P=P, Q=Q, M=M, class_means=means, global_mean=gm, counts=idx.counts)


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
    """
    c = sc.n_classes
    if not 1 <= p <= c - 1:
        raise InputError(f"p must be in 1..c-1 = 1..{c - 1}, got {p}")
    if eps < 0:
        raise InputError(f"regularizer must be non-negative, got {eps}")
    n = sc.Q.shape[0]
    try:
        if eps > 0:
            L = scipy.linalg.cholesky(
                sc.Q + eps * np.eye(n), lower=True, overwrite_a=True, check_finite=False
            )
            Y = scipy.linalg.solve_triangular(L, sc.M, lower=True, check_finite=False)
        else:
            s, U = scipy.linalg.eigh(sc.Q)
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
        vals, V = scipy.linalg.eigh(Y.T @ Y, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NumericError(f"generalized eigensolver failed: {exc}") from exc
    # eigh returns ascending order; reverse for descending eigenvalues
    vals = vals[::-1][:p]
    Z = Y @ V[:, ::-1][:, :p]
    if eps > 0:
        A = scipy.linalg.solve_triangular(L, Z, lower=True, trans="T", check_finite=False)
    else:
        A = W @ Z
    norms = np.linalg.norm(A, axis=0)
    if np.any(norms == 0):
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

    ``kernel`` is anything exposing train_gram/cross_gram (a KernelSpec or a
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
    K = kernel.train_gram(X)
    sc = build_scatter(K, idx)
    model = solve_kfda(sc, p_eff, eps)
    return replace(model, train_basis=X, kernel_config=kernel)


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
    model = KfdaModel(
        A=_model_array(doc, "A", (n, p), path),
        eigvals=_model_array(doc, "eigvals", (p,), path),
        regularizer=doc["regularizer"],
        p=p,
        train_basis=_model_array(doc, "train_features", (n, d), path),
        kernel_config=kernel,
    )
    return model, doc["meta"]
