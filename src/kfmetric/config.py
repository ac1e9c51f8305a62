"""Run configuration: defaults, key=value config files, and config digests.

Each setting is declared once, on its ``RunConfig`` field (``_setting``): its default,
text parser, flag, digest membership, kind and lower bound; ``PARSERS``, ``digest``,
``cli`` and the checks read the fields.
A ``RunConfig`` checks its values when built, ``dataclasses.replace`` too. The digest skips
``features``, ``out`` and ``threads`` (file locations and the worker count), so golden
digests stay valid across machines.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field, fields

from .errors import InputError

METHODS = ("euclidean", "kfda", "np-mfml", "sm-mfml")

DEFAULT_TAU_GRID = (0.0, 1e-3, 1e-2, 1e-1, 1.0)


def default_n_grid(q: int) -> tuple[int, ...]:
    """The N values searched over a q-kernel bank: 1..min(5, q-1), or (1,) when q = 1."""
    return tuple(range(1, min(5, q - 1) + 1)) if q > 1 else (1,)


def _is_int(v) -> bool:
    """An integer that is not a bool (JSON true/false would pass int())."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """A real number that is not a bool (JSON true/false and "0.5" would pass float())."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _check_seed(seed) -> None:
    """A seed is a non-negative integer; a bool is not one."""
    if not _is_int(seed):
        raise InputError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _grid(kind):
    """A parser of comma-separated ``kind`` values; empty items are skipped."""
    return lambda v: tuple(kind(x) for x in v.split(",") if x.strip())


# a setting's kind: the check of its value and what the check asks for
_KINDS = {"count": (_is_int, "an integer"), "real": (_is_real, "a number")}


def _setting(default, parse, flag=None, hashed=True, kind=None, low=None, **flag_args):
    """A RunConfig field: its default, text parser, flag (``--<name with dashes>`` unless
    ``flag`` names it) with argparse's ``flag_args``, whether the digest hashes it, its
    kind ("count" or "real"; a None default is also allowed) and its lower bound ``low``."""
    meta = {"parse": parse, "flag": flag, "hashed": hashed, "flag_args": flag_args,
            "kind": kind, "low": low}
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class RunConfig:
    """All knobs for a train/evaluate/cv/sweep run, checked when built.

    A count (trials, q, p, folds, threads, base_seed or an N of n_grid) that is not an
    integer, a real (train_fraction, width_lo, width_hi, eps or a tau of tau_grid) that
    is not a number, a grid not a tuple or list, a non-bool include_distractors, or a
    value out of range raises InputError; a bool is neither a count nor a real.
    """

    method: str = _setting("kfda", str, choices=METHODS)
    features: str | None = _setting(None, str, hashed=False, help="feature CSV path")
    out: str = _setting("out", str, hashed=False, help="output directory")
    base_seed: int = _setting(0, int, flag="--seed", metavar="SEED",
                              help="base seed for all randomness")
    trials: int = _setting(10, int, kind="count", low=1)
    train_fraction: float = _setting(0.5, float, kind="real")
    eps: float = _setting(1e-7, float, kind="real", help="diagonal regularizer")
    p: int | None = _setting(None, lambda v: None if v.lower() == "full" else int(v),
                             kind="count", help="subspace dimension or 'full'")  # None = all c-1
    q: int = _setting(20, int, kind="count", low=1, help="number of bank kernels")
    width_lo: float = _setting(0.1, float, kind="real")
    width_hi: float = _setting(10.0, float, kind="real")
    folds: int = _setting(10, int, kind="count", low=2, help="cross-validation folds")
    n_grid: tuple[int, ...] | None = _setting(None, _grid(int))  # None = 1..min(5, q-1)
    tau_grid: tuple[float, ...] = _setting(DEFAULT_TAU_GRID, _grid(float))
    threads: int = _setting(1, int, hashed=False, kind="count", low=1)
    include_distractors: bool = _setting(
        True, lambda v: _BOOLS[v.strip().lower()], flag="--no-distractors",
        action="store_false", help="keep gallery-only identities out of the gallery",
    )

    def __post_init__(self) -> None:
        for f in fields(self):
            value, kind = getattr(self, f.name), f.metadata["kind"]
            if kind and not ((value is None and f.default is None) or _KINDS[kind][0](value)):
                raise InputError(f"{f.name} must be {_KINDS[kind][1]}, got {value!r}")
        for f in fields(self):
            value, low = getattr(self, f.name), f.metadata["low"]
            if low is not None and value < low:
                raise InputError(f"{f.name} must be >= {low}, got {value}")
        if self.n_grid is not None and not isinstance(self.n_grid, (tuple, list)):
            raise InputError(f"n_grid must be a tuple of integers, got {self.n_grid!r}")
        if self.n_grid is not None and not all(_is_int(N) for N in self.n_grid):
            raise InputError(f"every N in n_grid must be an integer, got {self.n_grid!r}")
        if not (isinstance(self.tau_grid, (tuple, list)) and all(map(_is_real, self.tau_grid))):
            raise InputError(f"tau_grid must be a tuple of numbers, got {self.tau_grid!r}")
        _check_seed(self.base_seed)
        if not isinstance(self.include_distractors, bool):
            raise InputError(
                f"include_distractors must be true or false, got {self.include_distractors!r}"
            )
        if self.method not in METHODS:
            raise InputError(f"method must be one of {METHODS}, got {self.method!r}")
        if not 0.0 < self.train_fraction < 1.0:
            raise InputError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if not 0.0 < self.width_lo < self.width_hi < math.inf:
            raise InputError(
                f"need 0 < width_lo < width_hi < inf, got {self.width_lo}, {self.width_hi}"
            )
        if not 0 < self.eps < math.inf:
            raise InputError(f"eps must be positive and finite, got {self.eps}")
        if self.p is not None and self.p < 1:
            raise InputError(f"p must be >= 1 or 'full', got {self.p}")
        if self.n_grid is not None and any(N < 1 for N in self.n_grid):
            raise InputError("every N in n_grid must be >= 1")
        if not all(0 <= t < math.inf for t in self.tau_grid):
            raise InputError("tau_grid values must be finite and non-negative")

    def digest(self) -> str:
        """sha256 over every field but features, out and threads; stable across machines.

        Each real (and each tau) is hashed as a float, so 10 and 10.0 give one digest.
        """
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.metadata["hashed"]}
        doc.update((name, float(doc[name])) for name in _REALS)
        doc["tau_grid"] = [float(t) for t in self.tau_grid]
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


# the real-valued fields; tau_grid holds reals too
_REALS = tuple(f.name for f in fields(RunConfig) if f.metadata["kind"] == "real")

# every field's text form, as config files and command-line flags give it
PARSERS = {f.name: f.metadata["parse"] for f in fields(RunConfig)}


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

