"""Command-line entry point.

Subcommands: synth (fixture generation), train, evaluate, cv, sweep.
Settings come from an optional key=value config file plus flags; flags win.
Each run flag is read from its ``RunConfig`` field, where the setting is
declared, and its text parses as its config key's does (``config.PARSERS``).
Exit codes: 0 success, 2 input error, 3 numeric failure. Results go to
stdout; causes of failure go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import fields
from pathlib import Path

from .config import PARSERS, RunConfig, load_config_file
from .data import load_features, make_split, open_output, save_features
from .errors import InputError, NumericError
from .evaluation import (
    cv_for_trial,
    dimension_sweep,
    evaluate_model,
    fit_for_trial,
    run_trials,
    write_cmc_csv,
    write_sweep_csv,
)
from .kfda import load_model, save_model
from .mkl import build_config, write_cv_csv
from .synthetic import make_synthetic

SUMMARY_RANKS = (1, 5, 10, 20)


def _parse(key: str, text: str, parse=None, error=InputError):
    """``text`` parsed as config key ``key`` is (or with ``parse``); a failure raises ``error``."""
    try:
        return (parse or PARSERS[key])(text)
    except (ValueError, KeyError) as exc:
        raise error(f"bad value for {key}: {exc}") from None


def _parsed_as(key: str, parse=None):
    """An argparse ``type`` that parses like config key ``key`` (or with ``parse``)."""
    return functools.partial(_parse, key, parse=parse, error=argparse.ArgumentTypeError)


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per RunConfig field, as the field declares it; unset flags stay unset."""
    parser.add_argument("--config", help="key=value config file; flags override it")
    for f in fields(RunConfig):
        flag = f.metadata["flag"] or "--" + f.name.replace("_", "-")
        kwargs = dict(f.metadata["flag_args"])
        if "action" not in kwargs:
            kwargs["type"] = _parsed_as(f.name)
        parser.add_argument(flag, dest=f.name, **kwargs)


def _config_from_args(args) -> RunConfig:
    """--config file settings, then the flags given; the feature-file checks run before --out."""
    values = load_config_file(args.config) if getattr(args, "config", None) else {}
    for key, value in vars(args).items():
        if key in PARSERS:
            # argparse hands `--flag=--` over as [], its text "--" unparsed
            values[key] = _parse(key, "--") if value == [] else value
    cfg = RunConfig(**values)
    if cfg.features is None:
        raise InputError("no feature file configured")
    if not os.path.exists(cfg.features):
        raise InputError(f"feature file does not exist: {cfg.features}")
    return cfg


def _refuse_bare_dashes(args) -> None:
    """Refuse a non-run flag given as ``--flag=--``, as its ``--flag --`` is refused.

    argparse hands such a flag over as [] without calling its parser; a run
    setting's ``--`` parses as its config key's text (:func:`_config_from_args`),
    while every other flag, whose dest is its name, takes no ``--`` value.
    """
    for key, value in vars(args).items():
        if value == [] and (args.command == "synth" or key not in PARSERS):
            raise InputError(f"argument --{key.replace('_', '-')}: expected one argument")


def _out_dir(path) -> Path:
    """``path`` as a directory, made if missing; one that cannot be made is an input error."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot use {out} as an output directory: {exc.strerror}") from None
    return out


def _print_summary(report) -> None:
    print(f"config_digest {report.config_digest}")
    print(f"trials {report.trials}  gallery_size {report.ranks[-1]}")
    for k in SUMMARY_RANKS:
        if k <= report.ranks[-1]:
            print(f"rank-{k} {100.0 * report.rank_accuracy(k):.2f}%")


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    if cfg.method == "euclidean":
        raise InputError("the raw-feature baseline has no model to train")
    out = _out_dir(cfg.out)
    ds = load_features(cfg.features)
    plan = make_split(ds, cfg.base_seed, cfg.train_fraction)
    model = fit_for_trial(ds, plan, cfg)
    meta = {
        "config_digest": cfg.digest(),
        "method": cfg.method,
        "trial_seed": plan.trial_seed,
        "train_fraction": cfg.train_fraction,
    }
    model_path = out / "model.json"
    save_model(model, model_path, meta=meta)
    log_lines = [
        f"config_digest={cfg.digest()}",
        f"method={cfg.method}",
        f"n_train={model.n_train}",
        f"p={model.p}",
        f"kernel={model.kernel_config.describe()}",
        f"eigval_max={float(model.eigvals[0])!r}",
    ]
    with open_output(out / "train.log", "training log") as fh:
        fh.write("\n".join(log_lines) + "\n")
    print(f"config_digest {cfg.digest()}")
    print(f"model {model_path}")
    return 0


def _meta_value(meta: dict, key: str, default, kind, path):
    """A model file's ``meta[key]`` if present, checked to be a ``kind`` and not a bool."""
    value = meta.get(key, default)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InputError(f"{path}: meta field {key!r} has the wrong type: {value!r}")
    return value


def cmd_evaluate(args) -> int:
    cfg = _config_from_args(args)
    out = _out_dir(cfg.out)
    ds = load_features(cfg.features)
    if getattr(args, "model", None):
        model, meta = load_model(args.model)
        seed = _meta_value(meta, "trial_seed", cfg.base_seed, int, args.model)
        fraction = _meta_value(meta, "train_fraction", cfg.train_fraction, (int, float), args.model)
        plan = make_split(ds, seed, float(fraction))
        report = evaluate_model(ds, model, plan, cfg)
    else:
        report = run_trials(ds, cfg.method, cfg.trials, cfg.base_seed, cfg)
    cmc_path = out / "cmc.csv"
    write_cmc_csv(report, cmc_path)
    _print_summary(report)
    print(f"cmc {cmc_path}")
    return 0


def cmd_cv(args) -> int:
    cfg = _config_from_args(args)
    out = _out_dir(cfg.out)
    ds = load_features(cfg.features)
    cv = cv_for_trial(ds, make_split(ds, cfg.base_seed, cfg.train_fraction), cfg)
    cv_path = out / "cv.csv"
    write_cv_csv(cv, cv_path)
    print(f"config_digest {cfg.digest()}")
    for r, (spec, pi) in enumerate(zip(cv.bank, cv.accuracies.pis)):
        print(f"kernel {r} width={spec.width!r} rank1 {pi!r}")
    if len(cv.bank) >= 2:
        np_cfg = build_config("np", cv, n_grid=cfg.n_grid)
        sm_cfg = build_config("sm", cv, tau_grid=cfg.tau_grid)
        print(f"chosen_N {np_cfg.n_top}")
        print(f"chosen_pair {sm_cfg.pair[0]},{sm_cfg.pair[1]}")
        print(f"chosen_tau {sm_cfg.tau!r}")
    else:
        print("chosen_N n/a (q=1)")
        print("chosen_tau n/a (q=1)")
    print(f"cv {cv_path}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    out = _out_dir(cfg.out)
    ds = load_features(cfg.features)
    rows = dimension_sweep(ds, cfg.method, args.p_values, cfg.trials, cfg.base_seed, cfg)
    sweep_path = out / "sweep.csv"
    write_sweep_csv(rows, sweep_path)
    print(f"config_digest {cfg.digest()}")
    for p, rank1 in rows:
        print(f"p {p} rank1 {rank1!r}")
    print(f"sweep {sweep_path}")
    return 0


def cmd_synth(args) -> int:
    ds = make_synthetic(
        identities=args.identities,
        views=args.views,
        dim=args.dim,
        noise=args.noise,
        view_offset=args.view_offset,
        seed=args.seed,
    )
    out = Path(args.out)
    _out_dir(out.parent)
    save_features(ds, out)
    print(f"features {out}")
    print(f"rows {ds.n_samples}  dim {ds.dim}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kfmetric",
        description="Kernel Fisher discriminant metric learning and retrieval evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="write a synthetic two-view feature CSV")
    p_synth.add_argument("--identities", type=int, default=40)
    p_synth.add_argument("--views", type=int, default=2)
    p_synth.add_argument("--dim", type=int, default=20)
    p_synth.add_argument("--noise", type=float, default=0.05)
    p_synth.add_argument("--view-offset", type=float, default=30.0, dest="view_offset")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="output CSV path")
    p_synth.set_defaults(func=cmd_synth)

    for command, func, summary in (
        ("train", cmd_train, "train and persist a model"),
        ("evaluate", cmd_evaluate, "run trials and write the CMC table"),
        ("cv", cmd_cv, "per-kernel cross-validated accuracies"),
        ("sweep", cmd_sweep, "rank-1 accuracy vs subspace dimension"),
    ):
        # run flags left out of argv stay out of the namespace, so the config file keeps them
        run = sub.add_parser(command, help=summary, argument_default=argparse.SUPPRESS)
        _add_run_flags(run)
        run.set_defaults(func=func)
    evaluate, sweep = sub.choices["evaluate"], sub.choices["sweep"]
    evaluate.add_argument("--model", help="evaluate a persisted model instead of retraining")
    sweep.add_argument(
        "--p-values", dest="p_values", type=_parsed_as("p_values", PARSERS["n_grid"]),
        required=True, help="comma-separated subspace dimensions",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _refuse_bare_dashes(args)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
