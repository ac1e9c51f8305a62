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

A model of two or more terms may overlap its embedding products: under the
rule of :func:`~kfmetric.threads.helper` (one BLAS thread, two or more
usable CPUs), and when one term's product K_t A_t reaches _HELPER_MACS
multiply-adds, each even-numbered term's product runs on a helper thread
while the next term's block is built and multiplied here. The products are
added in term order, as a serial sum adds them, and with one BLAS thread a
GEMM gives the same bits on any thread, so the embedding's bits do not
depend on whether the helper ran.

:func:`true_ranks`, the one ranking routine, ranks those scores for
evaluation trials and CV folds alike.
"""

from __future__ import annotations

import contextlib

import numpy as np

from . import threads
from .errors import InputError, NumericError
from .kernels import grams, squared_distances
from .kfda import KfdaModel

# the fewest multiply-adds (rows x basis x discriminants) of one term's
# product for which embedding hands products to a helper thread: a
# 900-row gallery against a 600-sample basis and 299 discriminants (161M)
# overlaps, a 10-probe batch there (1.8M) or a protocol-sized model does not,
# so they start no thread
_HELPER_MACS = 1 << 24


def embed_batch(model: KfdaModel, Y) -> np.ndarray:
    """Embed sample rows of Y; returns an (m, p) coordinate matrix.

    The coordinates are ``sum_t k_t(Y, X) A_t`` over the model's terms, each
    product added in term order. Every term's block comes from one distance
    matrix. Run in turn, each block is dropped before the next is built. With
    two or more terms, a product of at least _HELPER_MACS multiply-adds and
    a helper under :func:`~kfmetric.threads.helper`'s rule, each
    even-numbered term's product runs on the helper while the next term's
    block is built and multiplied on this thread: at most one product is in
    flight, so the embedding holds one block and one product more. The
    helper runs only numpy's matmul, and ends before this returns or raises.
    One loop (:func:`_sum`) runs both ways, so the bits, and the first error
    raised, are those of running in turn.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    d = model.train_basis.shape[1]
    if Y.shape[1] != d:
        raise InputError(f"sample dimension {Y.shape[1]} != training dimension {d}")
    coefs = [A_t for _, A_t in model.terms]
    blocks = grams([spec for spec, _ in model.terms], Y, model.train_basis)
    big = len(coefs) > 1 and Y.shape[0] * coefs[0].size >= _HELPER_MACS
    with threads.helper("kfmetric-matmul") if big else contextlib.nullcontext() as start:
        return _sum(blocks, coefs, start)


def _sum(blocks, coefs, start) -> np.ndarray:
    """The sum of each block's product with its coefficients, added in term order.

    Given a ``start``, ``start(np.matmul, K, A_t)`` runs each even-numbered
    term's product on the helper while the next term's block is built and
    multiplied here; a last term with no next one runs here. With ``start``
    None every product runs here, in turn, and each block and product is
    dropped once read, before the next block is built.
    """
    total, flight = None, None  # flight waits for the product on the helper
    try:
        for t, A_t in enumerate(coefs):
            K = next(blocks)
            if start is not None and flight is None and t + 1 < len(coefs):
                flight = start(np.matmul, K, A_t)
                del K  # the helper holds it until its product is done
                continue
            product = K @ A_t
            del K
            if flight is not None:
                earlier, flight = flight(), None
                total = earlier if total is None else np.add(total, earlier, out=total)
                del earlier
            total = product if total is None else np.add(total, product, out=total)
            del product
    except Exception:
        if flight is not None:
            flight()  # run in turn, the product in flight came first: its error is raised first
        raise
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
