"""Dataset ingestion, class indexing, and identity-disjoint train/test splitting.

Feature files are CSV with header ``id,cam,f1,...,fd``: one sample per row,
``id`` an arbitrary string label, ``cam`` a non-negative integer camera label,
and the remaining columns real-valued feature entries.

All randomness is drawn from ``numpy.random.default_rng`` (PCG64) so that a
given seed produces the same split on every platform.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import _check_seed, _is_int
from .errors import InputError


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix with per-sample identity and camera labels.

    Camera labels are non-negative integers (numpy integers too, not bools); anything
    else raises InputError.
    """

    features: np.ndarray
    identities: tuple[str, ...]
    cameras: tuple[int, ...]

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise InputError(f"features must be 2-D, got shape {feats.shape}")
        n, d = feats.shape
        if n < 2:
            raise InputError(f"need at least 2 samples, got {n}")
        if d < 1:
            raise InputError("need at least 1 feature column")
        if len(self.identities) != n or len(self.cameras) != n:
            raise InputError(
                f"length mismatch: {n} feature rows, {len(self.identities)} "
                f"identities, {len(self.cameras)} cameras"
            )
        bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
        if bad.size:
            raise InputError(f"non-finite feature entry in sample {bad[0]}")
        # one label of each type stands for the labels of its type
        if not all(map(_is_int, dict(zip(map(type, self.cameras), self.cameras)).values())):
            label = next(c for c in self.cameras if not _is_int(c))
            raise InputError(f"camera labels must be integers, got {label!r}")
        cameras = tuple(map(int, self.cameras))
        if min(cameras) < 0:
            raise InputError("camera labels must be non-negative")
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "identities", tuple(map(str, self.identities)))
        object.__setattr__(self, "cameras", cameras)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @cached_property
    def identity_codes(self) -> np.ndarray:
        """Each sample's identity as an integer code, equal exactly when the identities are.

        Ranking compares these instead of the label strings, which is faster.
        """
        code: dict[str, int] = {}
        codes = np.array([code.setdefault(i, len(code)) for i in self.identities], dtype=np.intp)
        return _read_only(codes)

    def camera_labels(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.cameras)))

    def samples_of(self, ids, camera: int | None = None) -> list[int]:
        """Ascending indices of the samples with identity in ``ids``, optionally of one camera."""
        wanted = set(ids)
        return [
            i
            for i in range(self.n_samples)
            if self.identities[i] in wanted
            and (camera is None or self.cameras[i] == camera)
        ]


@dataclass(frozen=True, eq=False)
class ClassIndex:
    """Per-class membership over a subset of samples, as the arrays a scatter reads.

    Member positions are *within the indexed subset* (0-based, in subset
    order), so the index lines up row-for-row with any Gram matrix computed
    over that same subset. Classes are ordered by ascending label. Only
    :func:`index_classes` builds one, once per subset, so the CV folds, which
    score every candidate over one index, share its read-only arrays.
    """

    classes: tuple[str, ...]
    counts: tuple[int, ...]
    # one (classes, members) pair per class size s, in order of that size's
    # first class: the (m,) positions of its m classes and their (s, m) members,
    # ``members[k]`` the k-th sample of each, so a row is one contiguous take index
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]
    sqrt_counts: np.ndarray  # (c,) square roots of the class sizes
    weights: np.ndarray  # (c,) class sizes / n

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def n_total(self) -> int:
        return sum(self.counts)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SplitPlan:
    """Identity-disjoint train/test assignment for one trial."""

    train_ids: frozenset[str]
    test_ids: frozenset[str]
    trial_seed: int
    probe_camera: int
    gallery_camera: int

    def __post_init__(self):
        if self.train_ids & self.test_ids:
            raise InputError("train and test identities overlap")
        if self.probe_camera == self.gallery_camera:
            raise InputError("probe and gallery cameras must differ")
        _check_seed(self.trial_seed)
        object.__setattr__(self, "train_ids", frozenset(self.train_ids))
        object.__setattr__(self, "test_ids", frozenset(self.test_ids))


# values parsed per block before they become float64, so a load holds the Python
# floats of one block, not of the whole file
_BLOCK_VALUES = 1 << 16


def _csv_rows(reader, path):
    """The rows of a CSV reader; undecodable bytes or malformed CSV raise InputError."""
    try:
        yield from reader
    except (csv.Error, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: unreadable feature file: {exc}") from None


def _feature_values(row: list[str]) -> list[float]:
    """A CSV row's feature fields as floats; ValueError if one is not a number.

    A function of its own because tracemalloc finds the line of each allocation by
    scanning the allocating frame's code from its start: in the row loop of
    ``load_features`` that made a traced load of 200 x 2000 values 2.5x slower.
    """
    return list(map(float, row[2:]))


def load_features(path) -> Dataset:
    """Read a feature CSV into a validated Dataset, preserving row order.

    Errors name the file line (1-based, header is line 1) on which the offending
    record ends, and the first faulty record in file order is the one reported.
    Values become float64 a block at a time, so a load holds about twice the
    feature array.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot open feature file {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        rows = _csv_rows(reader, path)
        try:
            header = next(rows)
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        if len(header) < 3 or header[0] != "id" or header[1] != "cam":
            raise InputError(
                f"{path}: line 1: header must start with 'id,cam' and have "
                "at least one feature column"
            )
        d = len(header) - 2
        block_rows = max(1, _BLOCK_VALUES // d)
        ids: list[str] = []
        cams: list[int] = []
        blocks: list[np.ndarray] = []
        pending: list[list[float]] = []
        for row in rows:
            if not row:
                continue
            lineno = reader.line_num
            if len(row) != d + 2:
                raise InputError(
                    f"{path}: line {lineno}: expected {d + 2} columns, got {len(row)}"
                )
            try:
                cam = int(row[1])
            except ValueError:
                raise InputError(
                    f"{path}: line {lineno}: camera label {row[1]!r} is not an integer"
                ) from None
            if cam < 0:
                raise InputError(f"{path}: line {lineno}: negative camera label {cam}")
            try:
                feats = _feature_values(row)
            except ValueError:
                raise InputError(f"{path}: line {lineno}: malformed feature value") from None
            if not all(map(math.isfinite, feats)):
                raise InputError(f"{path}: line {lineno}: non-finite feature value")
            ids.append(row[0])
            cams.append(cam)
            pending.append(feats)
            if len(pending) == block_rows:
                blocks.append(np.array(pending, dtype=np.float64))
                pending = []
    if len(ids) < 2:
        raise InputError(f"{path}: need at least 2 samples, got {len(ids)}")
    if pending:
        blocks.append(np.array(pending, dtype=np.float64))
    features = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    return Dataset(features, tuple(ids), tuple(cams))


def open_output(path, what: str):
    """``path`` opened to write UTF-8 text; InputError, naming ``what`` and path, if it cannot be."""
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {what} {path}: {exc.strerror}") from None


def save_features(ds: Dataset, path) -> None:
    """Write a Dataset as a feature CSV, floats round-tripping exactly; InputError if unwritable."""
    with open_output(path, "feature file") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "cam"] + [f"f{j + 1}" for j in range(ds.dim)])
        # csv writes an int by str and a float by its repr, neither of which ever
        # needs quoting, so only the ids go through csv, each distinct one once
        field = _first_fields(ds.identities)
        end = writer.dialect.lineterminator
        fh.writelines(
            f"{field[ident]},{cam},{','.join(map(repr, feats.tolist()))}{end}"
            for ident, cam, feats in zip(ds.identities, ds.cameras, ds.features)
        )


def _first_fields(values) -> dict:
    """Each distinct value as csv.writer writes it as the first of several fields of a row."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    out = {}
    for v in dict.fromkeys(values):
        buf.seek(0)
        buf.truncate()
        writer.writerow([v, ""])
        out[v] = buf.getvalue()[: -len("," + writer.dialect.lineterminator)]
    return out


def index_classes(ds: Dataset, subset) -> ClassIndex:
    """Build a ClassIndex over ``subset`` (dataset sample indices).

    Member indices refer to positions within ``subset``; class order is
    ascending label order so downstream eigen output is reproducible.
    """
    subset = list(subset)
    if not subset:
        raise InputError("empty subset")
    if len(set(subset)) != len(subset):
        raise InputError("duplicate sample index in subset")
    n = ds.n_samples
    for i in subset:
        if not 0 <= i < n:
            raise InputError(f"sample index {i} out of range 0..{n - 1}")
    by_label: dict[str, list[int]] = {}
    for pos, i in enumerate(subset):
        by_label.setdefault(ds.identities[i], []).append(pos)
    classes = tuple(sorted(by_label))
    counts = tuple(len(by_label[c]) for c in classes)
    by_size: dict[int, list[int]] = {}
    for c, size in enumerate(counts):
        by_size.setdefault(size, []).append(c)
    groups = tuple(
        (
            _read_only(np.array(cls, dtype=np.intp)),
            _read_only(np.array([by_label[classes[c]] for c in cls], np.intp).T.copy()),
        )
        for cls in by_size.values()
    )
    sizes = np.asarray(counts, dtype=np.float64)
    return ClassIndex(
        classes, counts, groups, _read_only(np.sqrt(sizes)), _read_only(sizes / len(subset))
    )


def eligible_identities(
    ds: Dataset, probe_camera: int, gallery_camera: int
) -> tuple[list[str], list[str]]:
    """Split identity labels into (both-camera, missing-a-camera) groups."""
    probe_ids = {ds.identities[i] for i in range(ds.n_samples) if ds.cameras[i] == probe_camera}
    gal_ids = {ds.identities[i] for i in range(ds.n_samples) if ds.cameras[i] == gallery_camera}
    all_ids = sorted(set(ds.identities))
    both = probe_ids & gal_ids
    eligible = [i for i in all_ids if i in both]
    excluded = [i for i in all_ids if i not in both]
    return eligible, excluded


def make_split(ds: Dataset, trial_seed: int, train_fraction: float = 0.5) -> SplitPlan:
    """Deterministically assign identities to train/test for one trial.

    The probe and gallery cameras are the two smallest camera labels. Identities
    are shuffled with ``default_rng(trial_seed)``; the first
    ceil(train_fraction * count) go to training. Identities lacking a sample
    in either camera are excluded with a warning before shuffling. The
    trial's CV reads the plan's training ids, seed and cameras.
    """
    if not 0.0 < train_fraction < 1.0:
        raise InputError(f"train_fraction must be in (0, 1), got {train_fraction}")
    _check_seed(trial_seed)
    cams = ds.camera_labels()
    if len(cams) < 2:
        raise InputError(f"need samples from at least 2 cameras, found {cams}")
    probe_camera, gallery_camera = cams[0], cams[1]
    eligible, excluded = eligible_identities(ds, probe_camera, gallery_camera)
    if excluded:
        warnings.warn(
            f"{len(excluded)} identities lack a sample in camera {probe_camera} "
            f"or {gallery_camera} and are excluded from splitting: "
            f"{excluded[:5]}{'...' if len(excluded) > 5 else ''}",
            stacklevel=2,
        )
    if len(eligible) < 2:
        raise InputError(
            f"need at least 2 identities with samples in cameras "
            f"{probe_camera} and {gallery_camera}, found {len(eligible)}"
        )
    rng = np.random.default_rng(trial_seed)
    order = [eligible[i] for i in rng.permutation(len(eligible))]
    n_train = math.ceil(train_fraction * len(order))
    if n_train >= len(order):
        raise InputError("train_fraction leaves no test identities")
    return SplitPlan(
        train_ids=frozenset(order[:n_train]),
        test_ids=frozenset(order[n_train:]),
        trial_seed=trial_seed,
        probe_camera=probe_camera,
        gallery_camera=gallery_camera,
    )
