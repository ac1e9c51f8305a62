"""Desk-scale synthetic re-identification data.

Each identity gets a Gaussian center; every camera beyond the first adds a
shared offset vector to all of its samples, emulating a strong cross-view
shift that confounds raw-feature matching but is suppressible by a learned
metric. One sample per (identity, camera); rows ordered by identity then
camera. All draws come from one seeded PCG64 generator in a fixed order.
"""

from __future__ import annotations

import math

import numpy as np

from .config import _check_seed, _is_int, _is_real
from .data import Dataset
from .errors import InputError


def make_synthetic(
    identities: int,
    views: int = 2,
    dim: int = 20,
    noise: float = 0.05,
    view_offset: float = 30.0,
    seed: int = 0,
) -> Dataset:
    """Two-view (or multi-view) Gaussian identity data with a camera offset.

    Counts, the seed and reals are checked as :class:`~kfmetric.config.RunConfig`
    checks its own; a bool is none of them.
    """
    for name, value in (("identities", identities), ("views", views), ("dim", dim)):
        if not _is_int(value):
            raise InputError(f"{name} must be an integer, got {value!r}")
    if identities < 2:
        raise InputError(f"need at least 2 identities, got {identities}")
    if views < 2:
        raise InputError(f"need at least 2 views, got {views}")
    if dim < 1:
        raise InputError(f"need dim >= 1, got {dim}")
    for name, value in (("noise", noise), ("view_offset", view_offset)):
        if not _is_real(value):
            raise InputError(f"{name} must be a number, got {value!r}")
        if not 0 <= value < math.inf:
            raise InputError(f"{name} must be finite and non-negative, got {value}")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(identities, dim))
    offsets = np.zeros((views, dim))
    for v in range(1, views):
        raw = rng.normal(size=dim)
        offsets[v] = view_offset * raw / np.linalg.norm(raw)
    jitter = rng.normal(size=(identities, views, dim))
    width = len(str(identities - 1))
    rows = (centers[:, None, :] + offsets + noise * jitter).reshape(identities * views, dim)
    ids = tuple(f"id{i:0{width}d}" for i in range(identities) for _ in range(views))
    cams = tuple(v for _ in range(identities) for v in range(views))
    return Dataset(rows, ids, cams)
