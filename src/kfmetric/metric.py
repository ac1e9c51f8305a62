"""Matching scores in the learned discriminative subspace.

A sample y embeds as ``A.T k_y`` where k_y holds kernel evaluations of y
against the retained training samples X. Every trained model carries that
map folded into terms (k_t, A_t), so single-kernel and multiple-kernel
models embed by one rule, ``embed(Y) = sum_t k_t(Y, X) A_t``. The matching
score between two samples is the squared Euclidean distance between their
embeddings, which equals the learned Mahalanobis distance between the
mapped samples; lower means closer. Scores stay squared since ranking is
monotone-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .kernels import grams, squared_distances
from .kfda import KfdaModel


@dataclass(frozen=True)
class Projection:
    """Image of one sample in the p-dimensional discriminative subspace."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 1:
            raise NumericError(f"projection must be 1-D, got shape {coords.shape}")
        if not np.isfinite(coords).all():
            raise NumericError("projection contains non-finite entries")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    @property
    def p(self) -> int:
        return self.coords.shape[0]


def _check_trained(model: KfdaModel) -> None:
    if model.train_basis is None or not model.terms:
        raise InputError("model has no training basis; use a model from train()")


def embed_batch(model: KfdaModel, Y) -> np.ndarray:
    """Embed sample rows of Y; returns an (m, p) coordinate matrix."""
    _check_trained(model)
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    d = model.train_basis.shape[1]
    if Y.shape[1] != d:
        raise InputError(f"sample dimension {Y.shape[1]} != training dimension {d}")
    coefs = iter(A_t for _, A_t in model.terms)
    total = 0
    # every term's kernel over (Y, X) comes from one distance matrix; each
    # block is multiplied into the sum and dropped before the next is built
    for K in grams([spec for spec, _ in model.terms], Y, model.train_basis):
        total += K @ next(coefs)
        del K
    return total


def embed(model: KfdaModel, y) -> Projection:
    """Embed one sample."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise InputError(f"expected a single sample vector, got shape {y.shape}")
    return Projection(embed_batch(model, y[None, :])[0])


def score(model: KfdaModel, y, z) -> float:
    """Squared distance between two samples in the discriminative subspace."""
    coords = embed_batch(model, np.stack([np.asarray(y, dtype=np.float64),
                                          np.asarray(z, dtype=np.float64)]))
    diff = coords[0] - coords[1]
    return float(diff @ diff)


def score_matrix(model: KfdaModel, probes, gallery) -> np.ndarray:
    """All probe-vs-gallery scores at once; cross-Grams are computed once."""
    return squared_distances(embed_batch(model, probes), embed_batch(model, gallery))


def euclidean_score(y, z) -> float:
    """Squared Euclidean distance between raw feature vectors (no learning)."""
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if y.shape != z.shape:
        raise InputError(f"dimension mismatch: {y.shape} vs {z.shape}")
    diff = y - z
    return float(diff @ diff)


def euclidean_score_matrix(probes, gallery) -> np.ndarray:
    """All probe-vs-gallery squared Euclidean distances."""
    return squared_distances(probes, gallery)
