"""Run configuration: defaults, key=value config files, and config digests.

A ``RunConfig`` checks its values when built, ``dataclasses.replace`` too;
``PARSERS`` stays each setting's text form, for config files and flags alike.
The digest hashes every field except ``features``, ``out`` and ``threads``
(file locations and the worker count), so golden digests stay valid across machines.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, fields

from .errors import InputError

METHODS = ("euclidean", "kfda", "np-mfml", "sm-mfml")

DEFAULT_TAU_GRID = (0.0, 1e-3, 1e-2, 1e-1, 1.0)


def default_n_grid(q: int) -> tuple[int, ...]:
    """The N values searched over a q-kernel bank: 1..min(5, q-1), or (1,) when q = 1."""
    return tuple(range(1, min(5, q - 1) + 1)) if q > 1 else (1,)


# fields left out of the config digest: file locations and the worker count
_UNHASHED = frozenset({"features", "out", "threads"})


def _is_int(v) -> bool:
    """An integer that is not a bool (JSON true/false would pass int())."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _check_seed(seed) -> None:
    """A seed is a non-negative integer; a bool is not one."""
    if not _is_int(seed):
        raise InputError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")


@dataclass(frozen=True)
class RunConfig:
    """All knobs for a train/evaluate/cv/sweep run, checked when built.

    A count (trials, q, p, folds, threads or an N of n_grid) that is not an
    integer or is a bool, a base_seed that is not a non-negative integer, an
    include_distractors that is not a bool, or a value out of range raises InputError.
    """

    method: str = "kfda"
    features: str | None = None
    out: str = "out"
    train_fraction: float = 0.5
    trials: int = 10
    base_seed: int = 0
    q: int = 20
    width_lo: float = 0.1
    width_hi: float = 10.0
    eps: float = 1e-7
    p: int | None = None  # None = use all c-1 discriminants
    folds: int = 10
    n_grid: tuple[int, ...] | None = None  # None = 1..min(5, q-1)
    tau_grid: tuple[float, ...] = DEFAULT_TAU_GRID
    threads: int = 1
    include_distractors: bool = True

    def __post_init__(self) -> None:
        counts = {"trials": self.trials, "q": self.q, "folds": self.folds, "threads": self.threads}
        if self.p is not None:
            counts["p"] = self.p
        for name, value in counts.items():
            if not _is_int(value):
                raise InputError(f"{name} must be an integer, got {value!r}")
        if self.n_grid is not None and not all(_is_int(N) for N in self.n_grid):
            raise InputError(f"every N in n_grid must be an integer, got {self.n_grid!r}")
        _check_seed(self.base_seed)
        if not isinstance(self.include_distractors, bool):
            raise InputError(
                f"include_distractors must be true or false, got {self.include_distractors!r}"
            )
        if self.method not in METHODS:
            raise InputError(f"method must be one of {METHODS}, got {self.method!r}")
        if not 0.0 < self.train_fraction < 1.0:
            raise InputError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.trials < 1:
            raise InputError(f"trials must be >= 1, got {self.trials}")
        if self.q < 1:
            raise InputError(f"q must be >= 1, got {self.q}")
        if not 0.0 < self.width_lo < self.width_hi < math.inf:
            raise InputError(
                f"need 0 < width_lo < width_hi < inf, got {self.width_lo}, {self.width_hi}"
            )
        if not 0 < self.eps < math.inf:
            raise InputError(f"eps must be positive and finite, got {self.eps}")
        if self.p is not None and self.p < 1:
            raise InputError(f"p must be >= 1 or 'full', got {self.p}")
        if self.folds < 2:
            raise InputError(f"folds must be >= 2, got {self.folds}")
        if self.threads < 1:
            raise InputError(f"threads must be >= 1, got {self.threads}")
        if self.n_grid is not None and any(N < 1 for N in self.n_grid):
            raise InputError("every N in n_grid must be >= 1")
        if not all(0 <= t < math.inf for t in self.tau_grid):
            raise InputError("tau_grid values must be finite and non-negative")

    def digest(self) -> str:
        """sha256 over every field but features, out and threads; stable across machines."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in _UNHASHED}
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

# every field's text form, as config files and command-line flags give it
PARSERS = {
    "method": str,
    "features": str,
    "out": str,
    "train_fraction": float,
    "trials": int,
    "base_seed": int,
    "q": int,
    "width_lo": float,
    "width_hi": float,
    "eps": float,
    "p": lambda v: None if v.lower() == "full" else int(v),
    "folds": int,
    "n_grid": lambda v: tuple(int(x) for x in v.split(",") if x.strip()),
    "tau_grid": lambda v: tuple(float(x) for x in v.split(",") if x.strip()),
    "threads": int,
    "include_distractors": lambda v: _BOOLS[v.strip().lower()],
}


def load_config_file(path) -> dict:
    """Parse a flat key=value config file into a field dict."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InputError(f"cannot open config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: unreadable config file: {exc}") from None
    out: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}: line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in PARSERS:
            raise InputError(f"{path}: line {lineno}: unknown config key {key!r}")
        try:
            out[key] = PARSERS[key](value.strip())
        except (ValueError, KeyError) as exc:
            raise InputError(f"{path}: line {lineno}: bad value for {key}: {exc}") from exc
    return out

