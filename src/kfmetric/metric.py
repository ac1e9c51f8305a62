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

:func:`true_ranks`, the one ranking routine, ranks those scores for
evaluation trials and CV folds alike.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, NumericError
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


def true_ranks(dists, probe_ids, gallery_ids) -> np.ndarray:
    """1-based rank of each probe's true match in its row of ``dists``; 0 if absent.

    Row u of the (probes, gallery) matrix ``dists`` holds probe u's scores,
    lower meaning closer; a (..., probes, gallery) stack gives (..., probes)
    ranks, each row those of a 2-D call. The gallery is ordered by ascending
    score with ties broken by ascending gallery index, so a true match g*
    with score s* lands at 1 + #{g: s_g < s*} + #{g < g*: s_g = s*}; the
    best-placed match counts. A non-finite score raises NumericError.
    Identities are any labels numpy compares elementwise; the package passes
    integer arrays (``Dataset.identity_codes``), which compare faster than
    label strings and need no conversion.
    """
    dists = np.asarray(dists, dtype=np.float64)
    probe_ids = np.asarray(probe_ids)
    gallery_ids = np.asarray(gallery_ids)
    m, g = len(probe_ids), len(gallery_ids)
    if dists.ndim < 2 or dists.shape[-2:] != (m, g):
        raise InputError(f"need a {m} x {g} score matrix, got shape {dists.shape}")
    if g == 0:
        raise InputError("empty gallery")
    if not np.isfinite(dists).all():
        raise NumericError("non-finite matching score")
    # first minimum over the matches: the lowest-scored, then lowest-index, match;
    # scores are finite, so a probe's masked minimum is inf exactly when it has no match
    masked = np.where(probe_ids[:, None] == gallery_ids, dists, np.inf)
    best = masked.argmin(axis=-1)[..., None]
    s_best = np.take_along_axis(masked, best, axis=-1)
    del masked  # a (probes, gallery) float array, freed before the counting below
    ahead = dists < s_best
    ahead |= (dists == s_best) & (np.arange(g) < best)
    ranks = np.add.reduce(ahead, axis=-1) + 1
    ranks[s_best[..., 0] == np.inf] = 0
    return ranks
