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

A model of two or more terms may build its embedding on two CPUs, one of
the three stages that use a helper thread (:mod:`kfmetric.threads`). Its
step is one term's product K_t A_t, of rows x basis x discriminants
multiply-adds: a 900-row gallery against a 600-sample basis and 299
discriminants (161M) reaches the size rule of
:func:`~kfmetric.threads.helper`, a 10-probe batch there (1.8M) or a
protocol-sized model does not. Given a helper, the distances' and each
block's elementwise passes are split by rows between it and the main
thread, and the terms go in pairs: the first product of a pair runs on the
helper while the second runs here. The products are added in term order,
as a serial sum adds them; each entry of a pass gets the same operations
whatever rows it is given, and with one BLAS thread a GEMM gives the same
bits on any thread, so the embedding's bits do not depend on whether the
helper ran.

:func:`true_ranks`, the one ranking routine, ranks those scores for
evaluation trials and CV folds alike.
"""

from __future__ import annotations

import numpy as np

from . import threads
from .errors import InputError, NumericError
from .kernels import grams, squared_distances
from .kfda import KfdaModel


def embed_batch(model: KfdaModel, Y) -> np.ndarray:
    """Embed sample rows of Y; returns an (m, p) coordinate matrix.

    The coordinates are ``sum_t k_t(Y, X) A_t`` over the model's terms, each
    product added in term order. Every term's block comes from one distance
    matrix. Run in turn, each block is dropped before the next is built. With
    two or more terms and a helper from :func:`~kfmetric.threads.helper`,
    asked with one term's product size, the distances' and each block's
    elementwise passes are split by rows between the helper and this thread
    (:func:`~kfmetric.kernels.grams`), and the terms are taken two at a time:
    both blocks of a pair are built, the first product runs on the helper
    and the second here. So the embedding holds two blocks and two products
    besides the distances. The helper runs only private closures of
    :mod:`kfmetric.kernels` and numpy's matmul, and ends before this returns
    or raises. One loop (:func:`_sum`) runs both ways, so the bits, and the
    first error raised, are those of running in turn.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    d = model.train_basis.shape[1]
    if Y.shape[1] != d:
        raise InputError(f"sample dimension {Y.shape[1]} != training dimension {d}")
    coefs = [A_t for _, A_t in model.terms]
    macs = Y.shape[0] * coefs[0].size if len(coefs) > 1 else 0  # a lone term has no overlap
    with threads.helper("kfmetric-embed", macs) as start:
        blocks = grams([spec for spec, _ in model.terms], Y, model.train_basis, start)
        return _sum(blocks, coefs, start)


def _sum(blocks, coefs, start) -> np.ndarray:
    """The sum of each block's product with its coefficients, added in term order.

    With ``start`` None every product runs here, in turn, and each block and
    product is dropped once read, before the next block is built. Given a
    ``start``, the terms go two at a time (:func:`_pair_products`); a last
    term with no pair runs here.
    """
    total, t = None, 0
    while t < len(coefs):
        if start is not None and t + 1 < len(coefs):
            products = _pair_products(blocks, coefs[t], coefs[t + 1], start)
        else:
            products = (next(blocks) @ coefs[t],)
        t += len(products)
        for product in products:
            total = product if total is None else np.add(total, product, out=total)
        del products, product  # both are dropped before the next pair's blocks are built
    return total


def _pair_products(blocks, A, B, start) -> tuple:
    """The products of two terms' next blocks with ``A`` and ``B``: the first on the helper.

    Both blocks are built before either product starts. Run in turn, the
    first product comes before the second block and the second product, so
    its error, if any, is raised first.
    """
    K = next(blocks)
    try:
        K_next = next(blocks)
    except Exception:
        start(np.matmul, K, A)()  # the first product's error comes before the block's
        raise
    first = start(np.matmul, K, A)
    del K  # the helper holds it until its product is done
    try:
        second = K_next @ B
    except Exception:
        first()
        raise
    return first(), second


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
