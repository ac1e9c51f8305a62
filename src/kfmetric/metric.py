"""Matching scores in the learned discriminative subspace.

A trained :class:`~kfmetric.kfda.KfdaModel` is the learned metric. A sample
y embeds as ``A.T k_y``, where k_y holds kernel evaluations of y against the
retained training samples X; the model carries that map folded into terms
(k_t, A_t), so single-kernel and multiple-kernel models embed a batch Y by
one rule, ``embed_batch(Y) = sum_t k_t(Y, X) A_t``. The matching score of a
probe and a gallery sample is the squared Euclidean distance between their
embeddings, which equals the learned Mahalanobis distance between the mapped
samples; lower means closer. Scores stay squared since ranking is
monotone-invariant. :func:`score_matrix` scores every probe against every
gallery sample at once, and is the one scorer.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .kernels import grams, squared_distances
from .kfda import KfdaModel


def embed_batch(model: KfdaModel, Y) -> np.ndarray:
    """Embed sample rows of Y; returns an (m, p) coordinate matrix."""
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    d = model.train_basis.shape[1]
    if Y.shape[1] != d:
        raise InputError(f"sample dimension {Y.shape[1]} != training dimension {d}")
    coefs = iter(A_t for _, A_t in model.terms)
    # every term's kernel over (Y, X) comes from one distance matrix; the sum
    # starts as the first block's product, and each block is dropped before
    # the next is built
    blocks = grams([spec for spec, _ in model.terms], Y, model.train_basis)
    total = next(blocks) @ next(coefs)
    for K in blocks:
        total += K @ next(coefs)
        del K
    return total


def score_matrix(model: KfdaModel, probes, gallery) -> np.ndarray:
    """All probe-vs-gallery scores at once; cross-Grams are computed once."""
    return squared_distances(embed_batch(model, probes), embed_batch(model, gallery))


def euclidean_score_matrix(probes, gallery) -> np.ndarray:
    """All probe-vs-gallery squared Euclidean distances (no learning)."""
    return squared_distances(probes, gallery)
