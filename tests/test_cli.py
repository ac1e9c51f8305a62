import argparse
import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kfmetric import cli
from kfmetric.cli import _config_from_args, build_parser, main
from kfmetric.config import PARSERS, RunConfig, load_config_file
from kfmetric.data import Dataset, load_features, make_split, save_features
from kfmetric.errors import InputError, NumericError
from kfmetric.kernels import MAX_RBF_WIDTH, rms_width
from kfmetric.kfda import load_model

# digest of (method=np-mfml, trials=2, base_seed=0, q=6, folds=4, defaults
# elsewhere), frozen from the first verified run; paths are excluded from
# the digest so this is machine-independent
GOLDEN_TRAIN_DIGEST = "fe61d457853cda0dc248560074566576a95b2c8a44cfd3b9cd68b3ac06b8ec66"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "kfmetric", *map(str, args)],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def fixture_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixtures") / "features.csv"
    code = main(
        [
            "synth", "--identities", "14", "--dim", "6", "--noise", "0.05",
            "--view-offset", "10", "--seed", "0", "--out", str(path),
        ]
    )
    assert code == 0
    return path


class TestSynth:
    def test_row_count_matches_identities_times_views(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["synth", "--identities", "7", "--views", "3", "--out", str(out)]) == 0
        ds = load_features(out)
        assert ds.n_samples == 21
        assert set(ds.cameras) == {0, 1, 2}

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["synth", "--identities", "5", "--dim", "4", "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_noise_zero_offset_duplicates_rows(self, tmp_path):
        out = tmp_path / "dup.csv"
        assert main(
            [
                "synth", "--identities", "3", "--noise", "0", "--view-offset", "0",
                "--seed", "1", "--out", str(out),
            ]
        ) == 0
        ds = load_features(out)
        for i in range(3):
            np.testing.assert_array_equal(ds.features[2 * i], ds.features[2 * i + 1])


class TestTrain:
    def test_model_round_trips_bit_for_bit(self, fixture_csv, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            [
                "train", "--method", "np-mfml", "--features", str(fixture_csv),
                "--out", str(out), "--seed", "0", "--q", "6", "--folds", "4",
                "--trials", "2",
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert f"config_digest {GOLDEN_TRAIN_DIGEST}" in stdout
        model_path = out / "model.json"
        first = model_path.read_bytes()
        loaded, meta = load_model(model_path)
        assert meta["config_digest"] == GOLDEN_TRAIN_DIGEST
        assert meta["trial_seed"] == 0

        # retrain into a second directory: identical A, byte for byte
        out2 = tmp_path / "run2"
        assert main(
            [
                "train", "--method", "np-mfml", "--features", str(fixture_csv),
                "--out", str(out2), "--seed", "0", "--q", "6", "--folds", "4",
                "--trials", "2",
            ]
        ) == 0
        assert (out2 / "model.json").read_bytes() == first
        reloaded, _ = load_model(out2 / "model.json")
        assert reloaded.A.tobytes() == loaded.A.tobytes()
        assert (out / "train.log").read_text() == (out2 / "train.log").read_text()

    def test_missing_feature_file_exit_2(self, tmp_path):
        proc = run_cli(
            "train", "--method", "kfda", "--features", tmp_path / "nope.csv",
            "--out", tmp_path / "o",
        )
        assert proc.returncode == 2
        assert "nope.csv" in proc.stderr
        assert proc.stdout == ""

    def test_euclidean_has_no_model(self, fixture_csv, tmp_path):
        proc = run_cli(
            "train", "--method", "euclidean", "--features", fixture_csv,
            "--out", tmp_path / "o",
        )
        assert proc.returncode == 2


class TestEvaluate:
    def test_rerun_produces_byte_identical_csv(self, fixture_csv, tmp_path):
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            proc = run_cli(
                "evaluate", "--method", "kfda", "--features", fixture_csv,
                "--out", out, "--seed", "3", "--trials", "2", "--folds", "4",
                "--q", "4",
            )
            assert proc.returncode == 0, proc.stderr
            outs.append((out / "cmc.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_learned_metric_beats_baseline_on_confounded_fixture(self, tmp_path):
        feats = tmp_path / "confounded.csv"
        assert main(
            [
                "synth", "--identities", "16", "--dim", "8", "--noise", "0.05",
                "--view-offset", "20", "--seed", "2", "--out", str(feats),
            ]
        ) == 0

        def rank1(method):
            out = tmp_path / f"out_{method}"
            proc = run_cli(
                "evaluate", "--method", method, "--features", feats, "--out", out,
                "--seed", "0", "--trials", "2", "--folds", "4", "--q", "4",
            )
            assert proc.returncode == 0, proc.stderr
            line = next(l for l in proc.stdout.splitlines() if l.startswith("rank-1"))
            return float(line.split()[1].rstrip("%"))

        assert rank1("kfda") > rank1("euclidean")

    def test_evaluate_persisted_model(self, fixture_csv, tmp_path, capsys):
        out = tmp_path / "tr"
        assert main(
            [
                "train", "--method", "kfda", "--features", str(fixture_csv),
                "--out", str(out), "--seed", "5",
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            [
                "evaluate", "--features", str(fixture_csv), "--out", str(out),
                "--model", str(out / "model.json"), "--seed", "5",
            ]
        ) == 0
        stdout = capsys.readouterr().out
        assert "rank-1" in stdout
        assert (out / "cmc.csv").exists()

    def test_perfect_rank1_on_separable_fixture(self, tmp_path, capsys):
        feats = tmp_path / "easy.csv"
        assert main(
            [
                "synth", "--identities", "10", "--dim", "5", "--noise", "0.02",
                "--view-offset", "0", "--seed", "1", "--out", str(feats),
            ]
        ) == 0
        out = tmp_path / "easy_out"
        assert main(
            [
                "evaluate", "--method", "euclidean", "--features", str(feats),
                "--out", str(out), "--seed", "0", "--trials", "2",
            ]
        ) == 0
        stdout = capsys.readouterr().out
        assert "rank-1 100.00%" in stdout

    def test_summary_prints_standard_ranks(self, fixture_csv, tmp_path, capsys):
        out = tmp_path / "ev"
        assert main(
            [
                "evaluate", "--method", "euclidean", "--features", str(fixture_csv),
                "--out", str(out), "--seed", "0", "--trials", "1",
            ]
        ) == 0
        stdout = capsys.readouterr().out
        assert "rank-1 " in stdout and "rank-5 " in stdout
        header = (out / "cmc.csv").read_text().splitlines()[0]
        assert header == "rank,mean_accuracy,trial_1"


class TestCv:
    def test_report_and_choices(self, fixture_csv, tmp_path, capsys):
        out = tmp_path / "cv"
        assert main(
            [
                "cv", "--features", str(fixture_csv), "--out", str(out),
                "--seed", "0", "--q", "3", "--folds", "4",
            ]
        ) == 0
        stdout = capsys.readouterr().out
        assert "chosen_N" in stdout and "chosen_tau" in stdout
        lines = (out / "cv.csv").read_text().strip().splitlines()
        assert lines[0] == "kernel,fold,rank1"
        assert sum(1 for l in lines if ",mean," in l) == 3

    def test_single_kernel_bank(self, fixture_csv, tmp_path, capsys):
        out = tmp_path / "cv1"
        assert main(
            [
                "cv", "--features", str(fixture_csv), "--out", str(out),
                "--seed", "0", "--q", "1", "--folds", "4",
            ]
        ) == 0
        stdout = capsys.readouterr().out
        assert "n/a" in stdout
        lines = (out / "cv.csv").read_text().strip().splitlines()
        assert sum(1 for l in lines if ",mean," in l) == 1

    def test_deterministic_bytes(self, fixture_csv, tmp_path):
        blobs = []
        for name in ("c1", "c2"):
            out = tmp_path / name
            proc = run_cli(
                "cv", "--features", fixture_csv, "--out", out,
                "--seed", "1", "--q", "3", "--folds", "4",
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append((out / "cv.csv").read_bytes())
        assert blobs[0] == blobs[1]


@pytest.fixture(scope="module")
def noisy_csv(tmp_path_factory):
    """30 identities at noise 0.6, where the bank's CV accuracies differ per kernel."""
    path = tmp_path_factory.mktemp("noisy") / "features.csv"
    argv = ["synth", "--identities", "30", "--noise", "0.6", "--seed", "1", "--out", str(path)]
    assert _exit_code(argv) == 0
    return path


@pytest.mark.parametrize("method", ["np-mfml", "sm-mfml"])
def test_cv_reports_the_choices_train_makes(noisy_csv, tmp_path, capsys, method):
    # cv and train run one CV step, so cv's report is what the trained model holds
    run = ["--features", str(noisy_csv), "--seed", "1"]
    assert main(["cv", *run, "--out", str(tmp_path / "cv")]) == 0
    lines = capsys.readouterr().out.splitlines()
    rank1 = [float(line.rsplit(" ", 1)[1]) for line in lines if line.startswith("kernel ")]
    printed = dict(line.split(" ", 1) for line in lines if line.startswith("chosen_"))
    assert main(["train", "--method", method, *run, "--out", str(tmp_path / "train")]) == 0
    doc = json.loads((tmp_path / "train" / "model.json").read_text())["kernel_config"]
    pis = doc["accuracies"]["pis"]
    assert len(pis) == RunConfig().q and len(set(pis)) > 1
    assert rank1 == pis
    if method == "np-mfml":
        assert int(printed["chosen_N"]) == doc["n_top"]
    else:
        assert printed["chosen_pair"] == f"{doc['pair'][0]},{doc['pair'][1]}"
        assert float(printed["chosen_tau"]) == doc["tau"]


def test_cv_warns_about_a_tie_only_for_the_chosen_n(noisy_csv, tmp_path):
    # every N in 1..5 ties at its top-N boundary here; the search picks N = 1,
    # whose one kernel has weight 1.0 either way, so nothing is reported
    run = ("cv", "--method", "np-mfml", "--features", noisy_csv, "--seed", "1")
    proc = run_cli(*run, "--out", tmp_path / "cv")
    assert proc.returncode == 0, proc.stderr
    assert "chosen_N 1" in proc.stdout.splitlines()
    assert "boundary" not in proc.stderr
    # a grid of N = 2 alone does warn, once
    proc = run_cli(*run, "--n-grid", "2", "--out", tmp_path / "cv2")
    assert proc.returncode == 0, proc.stderr
    assert "chosen_N 2" in proc.stdout.splitlines()
    lines = proc.stderr.splitlines()
    [tie] = [k for k, line in enumerate(lines) if "boundary" in line]
    assert "accuracy tie at the top-2 boundary" in lines[tie]
    # the warning points at the caller's line, not into the library's search
    assert "cli.py" in lines[tie] and "mkl.py" not in lines[tie + 1]


class TestSweep:
    def test_rows_for_each_p(self, fixture_csv, tmp_path, capsys):
        out = tmp_path / "sw"
        assert main(
            [
                "sweep", "--method", "kfda", "--features", str(fixture_csv),
                "--out", str(out), "--seed", "0", "--trials", "1",
                "--p-values", "1,3,6",
            ]
        ) == 0
        capsys.readouterr()
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "p,rank1_mean"
        assert [l.split(",")[0] for l in lines[1:]] == ["1", "3", "6"]

    def test_full_dimension_at_least_as_good_as_one(self, fixture_csv, tmp_path, capsys):
        out = tmp_path / "sw2"
        assert main(
            [
                "sweep", "--method", "kfda", "--features", str(fixture_csv),
                "--out", str(out), "--seed", "0", "--trials", "2",
                "--p-values", "1,6",
            ]
        ) == 0
        capsys.readouterr()
        rows = dict(
            (int(l.split(",")[0]), float(l.split(",")[1]))
            for l in (out / "sweep.csv").read_text().strip().splitlines()[1:]
        )
        assert rows[6] >= rows[1]

    def test_repeated_p_exit_2(self, fixture_csv, tmp_path, capsys):
        out = tmp_path / "sw3"
        assert main(
            [
                "sweep", "--method", "kfda", "--features", str(fixture_csv),
                "--out", str(out), "--seed", "0", "--trials", "1",
                "--p-values", "1,1,2",
            ]
        ) == 2
        assert "distinct" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()


class TestConfigFile:
    def test_flags_override_file(self, fixture_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "\n".join(
                [
                    "# fixture settings",
                    f"features={fixture_csv}",
                    "method=euclidean",
                    "trials=1",
                    f"out={tmp_path / 'from_file'}",
                ]
            )
            + "\n"
        )
        assert main(["evaluate", "--config", str(cfg), "--trials", "2"]) == 0
        stdout = capsys.readouterr().out
        assert "trials 2" in stdout
        assert (tmp_path / "from_file" / "cmc.csv").exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus=1\n")
        proc = run_cli("evaluate", "--config", cfg)
        assert proc.returncode == 2
        assert "bogus" in proc.stderr

    @pytest.mark.parametrize("value", ["ture", "2", "", "on", "y"])
    def test_bad_boolean_exit_2(self, fixture_csv, tmp_path, value):
        cfg = tmp_path / "bool.cfg"
        cfg.write_text(f"include_distractors={value}\n")
        proc = run_cli(
            "evaluate", "--config", cfg, "--method", "euclidean", "--features", fixture_csv,
            "--out", tmp_path / "x", "--trials", "1",
        )
        assert proc.returncode == 2, proc.stderr
        assert "bad value for include_distractors" in proc.stderr

    def test_boolean_spellings(self, tmp_path):
        for value, expected in [("1", True), ("TRUE", True), ("Yes", True), ("0", False),
                                ("false", False), ("NO", False)]:
            cfg = tmp_path / "bool.cfg"
            cfg.write_text(f"include_distractors = {value}\n")
            assert load_config_file(cfg) == {"include_distractors": expected}

    def test_byte_order_mark_skipped(self, fixture_csv, tmp_path, capsys):
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbftrials=2\n")
        assert load_config_file(cfg) == {"trials": 2}
        argv = ["evaluate", "--config", str(cfg), "--method", "euclidean",
                "--features", str(fixture_csv), "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        assert "trials 2" in capsys.readouterr().out

    def test_p_full_flag(self, fixture_csv, tmp_path):
        out = tmp_path / "pf"
        proc = run_cli(
            "evaluate", "--method", "kfda", "--features", fixture_csv,
            "--out", out, "--seed", "0", "--trials", "1", "--p", "full",
        )
        assert proc.returncode == 0, proc.stderr


def test_utf8_files_under_ascii_locale(fixture_csv, tmp_path):
    """Feature and config files are UTF-8 whatever the locale's preferred encoding."""
    ds = load_features(fixture_csv)
    feats = tmp_path / "features.csv"
    names = tuple("José" + i for i in ds.identities)
    save_features(Dataset(ds.features, names, ds.cameras), feats)
    assert "José".encode() in feats.read_bytes()
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes("# é\nmethod=euclidean\n".encode())
    ascii_env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    copy_script = ("import sys; from kfmetric.data import load_features, save_features; "
                   "save_features(load_features(sys.argv[1]), sys.argv[2])")
    proc = subprocess.run([sys.executable, "-c", copy_script, feats, tmp_path / "copy.csv"],
                          env=ascii_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "copy.csv").read_bytes() == feats.read_bytes()
    proc = subprocess.run(
        [sys.executable, "-m", "kfmetric", "evaluate", "--config", cfg, "--features", feats,
         "--out", tmp_path / "x", "--trials", "1"],
        env=ascii_env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


class TestExitCodes:
    def test_unknown_method_rejected_by_parser(self, fixture_csv, tmp_path):
        proc = run_cli(
            "evaluate", "--method", "bogus", "--features", fixture_csv,
            "--out", tmp_path / "x",
        )
        assert proc.returncode == 2

    def test_invalid_numeric_config(self, fixture_csv, tmp_path):
        proc = run_cli(
            "evaluate", "--method", "kfda", "--features", fixture_csv,
            "--out", tmp_path / "x", "--eps", "-1",
        )
        assert proc.returncode == 2
        assert "eps" in proc.stderr

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--eps", "nan"], "eps"),
            (["--eps", "inf"], "eps"),
            (["--tau-grid", "0,nan"], "tau_grid"),
            (["--tau-grid", "0,inf"], "tau_grid"),
            (["--width-hi", "inf"], "width_hi"),
            (["--threads", "0"], "threads must be >= 1, got 0"),
            (["--q", "1"], "trial 0: multi-kernel methods need q >= 2 kernels, got 1"),
        ],
        ids=["eps-nan", "eps-inf", "tau-nan", "tau-inf", "width-hi-inf", "threads-zero", "q-one"],
    )
    def test_non_finite_flag_exit_2(self, fixture_csv, tmp_path, flags, message):
        proc = run_cli(
            "evaluate", "--method", "sm-mfml", "--features", fixture_csv,
            "--out", tmp_path / "x", "--trials", "1", "--q", "3", "--folds", "4", *flags,
        )
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr
        assert proc.stdout == ""

    def test_infinite_width_hi_in_config_exit_2(self, fixture_csv, tmp_path):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("width_hi=inf\n")
        proc = run_cli(
            "evaluate", "--config", cfg, "--method", "np-mfml", "--features", fixture_csv,
            "--out", tmp_path / "x", "--trials", "1",
        )
        assert proc.returncode == 2, proc.stderr
        assert "width_hi" in proc.stderr and "Warning" not in proc.stderr

    def test_negative_synth_seed_exit_2(self, tmp_path):
        proc = run_cli("synth", "--seed", "-1", "--out", tmp_path / "f.csv")
        assert proc.returncode == 2, proc.stderr
        assert "seed must be non-negative" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flag", ["--noise", "--view-offset"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_synth_flag_exit_2(self, tmp_path, capsys, flag, value):
        assert main(["synth", f"{flag}={value}", "--out", str(tmp_path / "f.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{flag[2:].replace('-', '_')} must be finite" in err and "sample" not in err
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--identities", "1", "need at least 2 identities, got 1"),
         ("--views", "1", "need at least 2 views, got 1"),
         ("--dim", "0", "need dim >= 1, got 0")],
        ids=["identities-one", "views-one", "dim-zero"],
    )
    def test_bad_synth_shape_exit_2(self, tmp_path, capsys, flag, value, message):
        assert main(["synth", flag, value, "--out", str(tmp_path / "f.csv")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "f.csv").exists()

    def test_missing_config_file_exit_2(self, fixture_csv, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        argv = ["evaluate", "--config", str(missing), "--features", str(fixture_csv),
                "--out", str(tmp_path / "x")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"error: cannot open config file {missing}" in captured.err and captured.out == ""

    @pytest.mark.parametrize("command, callee", [("synth", "make_synthetic"),
                                                 ("cv", "cv_for_trial")])
    def test_out_of_memory_exit_2(self, fixture_csv, tmp_path, capsys, monkeypatch, command,
                                  callee):
        # the message numpy gives when it cannot allocate; nothing is allocated for real
        message = "Unable to allocate 7.28 PiB for an array with shape (1000000000000, 1000)"

        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, callee, exhausted)
        argv = [command, "--out", str(tmp_path / "x")]
        if command == "cv":
            argv += ["--features", str(fixture_csv)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: not enough memory: {message}\n" and captured.out == ""

    def test_one_identity_in_both_cameras_exit_2(self, fixture_csv, tmp_path, capsys):
        # every other identity keeps only its camera-0 sample: one identity has both cameras
        ds = load_features(fixture_csv)
        keep = [i for i, (who, cam) in enumerate(zip(ds.identities, ds.cameras))
                if who == ds.identities[0] or cam == 0]
        path = tmp_path / "one.csv"
        save_features(Dataset(ds.features[keep], tuple(ds.identities[i] for i in keep),
                              tuple(ds.cameras[i] for i in keep)), path)
        argv = ["evaluate", "--method", "euclidean", "--features", str(path),
                "--out", str(tmp_path / "x"), "--trials", "1"]
        with pytest.warns(UserWarning, match="excluded from splitting"):
            assert main(argv) == 2
        assert ("error: trial 0: need at least 2 identities with samples in cameras 0 and 1, "
                "found 1") in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, key",
        [("--q=x", "q"), ("--p=1.5", "p"), ("--n-grid=1,x", "n_grid"), ("--seed=x", "base_seed"),
         ("--tau-grid=0,y", "tau_grid")],
    )
    def test_malformed_flag_is_usage_error(self, fixture_csv, tmp_path, capsys, flag, key):
        argv = ["evaluate", "--features", str(fixture_csv), "--out", str(tmp_path / "x"), flag]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"bad value for {key}" in capsys.readouterr().err
        assert _exit_code(argv) == 2

    def test_non_finite_scores_exit_3(self, fixture_csv, tmp_path):
        # squared distances of features near 1e160 overflow to inf - inf = NaN
        ds = load_features(fixture_csv)
        scaled = tmp_path / "scaled.csv"
        save_features(Dataset(ds.features * 1e160, ds.identities, ds.cameras), scaled)
        proc = run_cli(
            "evaluate", "--method", "euclidean", "--features", scaled,
            "--out", tmp_path / "x", "--trials", "1",
        )
        assert proc.returncode == 3, proc.stdout
        assert "non-finite matching score" in proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr

    def test_overflowing_query_distances_exit_3(self, fixture_csv, tmp_path):
        # a model trained on the features, queried with them times 1e160: the
        # query-to-basis squared distances overflow, which left every rbf
        # entry 0 and every score tied
        ds = load_features(fixture_csv)
        scaled = tmp_path / "scaled.csv"
        save_features(Dataset(ds.features * 1e160, ds.identities, ds.cameras), scaled)
        out = tmp_path / "m"
        assert _exit_code(
            ["train", "--method", "kfda", "--features", fixture_csv, "--out", out]
        ) == 0
        proc = run_cli(
            "evaluate", "--model", out / "model.json", "--features", scaled, "--out", tmp_path / "x"
        )
        assert proc.returncode == 3, proc.stdout
        assert "non-finite" in proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("method", ["kfda", "sm-mfml"])
    def test_overflowing_rms_width_exit_3(self, fixture_csv, tmp_path, method):
        # the automatic rbf width of features near 1e160 overflows to inf
        ds = load_features(fixture_csv)
        scaled = tmp_path / "scaled.csv"
        save_features(Dataset(ds.features * 1e160, ds.identities, ds.cameras), scaled)
        proc = run_cli(
            "evaluate", "--method", method, "--features", scaled,
            "--out", tmp_path / "x", "--trials", "1",
        )
        assert proc.returncode == 3, proc.stderr
        assert "rms pairwise distance inf" in proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr

    def test_failing_sweep_names_its_trial(self, fixture_csv, tmp_path):
        # evaluate and sweep share one trial loop, so both name the failing trial
        ds = load_features(fixture_csv)
        scaled = tmp_path / "scaled.csv"
        save_features(Dataset(ds.features * 1e160, ds.identities, ds.cameras), scaled)
        run = ("--method", "kfda", "--features", scaled, "--trials", "1")
        for command, extra in (("evaluate", ()), ("sweep", ("--p-values", "1,2"))):
            proc = run_cli(command, *run, *extra, "--out", tmp_path / command)
            assert proc.returncode == 3, proc.stderr
            assert proc.stderr.startswith("numeric failure: trial 0: rms pairwise distance inf")

    def test_overflowing_bank_width_exit_3(self, fixture_csv, tmp_path):
        # the rms width is usable, but width_hi (10) times it passes MAX_RBF_WIDTH
        ds = load_features(fixture_csv)
        train_idx = sorted(ds.samples_of(make_split(ds, 0, 0.5).train_ids))
        scaled_ds = Dataset(
            ds.features * (1.2e153 / rms_width(ds, train_idx)), ds.identities, ds.cameras
        )
        width = rms_width(scaled_ds, train_idx)
        assert width <= MAX_RBF_WIDTH < 10.0 * width
        scaled = tmp_path / "scaled.csv"
        save_features(scaled_ds, scaled)
        proc = run_cli(
            "evaluate", "--method", "np-mfml", "--features", scaled,
            "--out", tmp_path / "x", "--trials", "1", "--q", "3", "--folds", "4",
        )
        assert proc.returncode == 3, proc.stderr
        assert "rbf bank widths" in proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr

    def test_synth_out_directory_exit_2(self, tmp_path):
        proc = run_cli("synth", "--out", tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert f"cannot write feature file {tmp_path}" in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    @pytest.mark.parametrize(
        "command, extra",
        [("train", ["--method", "kfda"]), ("evaluate", ["--method", "euclidean"]),
         ("cv", ["--q", "2", "--folds", "2"]), ("sweep", ["--method", "kfda", "--p-values", "1"])],
        ids=["train", "evaluate", "cv", "sweep"],
    )
    def test_out_existing_file_exit_2(
        self, fixture_csv, tmp_path, capsys, monkeypatch, command, extra
    ):
        # the output directory is checked before the run reads its features
        def load_features(path):
            raise AssertionError(f"{command} read {path} before checking --out")

        monkeypatch.setattr(cli, "load_features", load_features)
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        argv = [command, "--features", fixture_csv, "--out", taken, "--trials", "1", *extra]
        assert main([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert f"cannot use {taken} as an output directory" in err
        assert taken.read_text() == "keep\n"

    @pytest.mark.parametrize(
        "command, extra, output",
        [("train", ["--method", "kfda"], "model.json"),
         ("train", ["--method", "kfda"], "train.log"),
         ("evaluate", ["--method", "euclidean"], "cmc.csv"),
         ("cv", ["--q", "2", "--folds", "2"], "cv.csv"),
         ("sweep", ["--method", "kfda", "--p-values", "1"], "sweep.csv")],
        ids=["train", "train-log", "evaluate", "cv", "sweep"],
    )
    def test_unwritable_output_exit_2(self, fixture_csv, tmp_path, capsys, command, extra, output):
        # a directory stands where the command writes its output file
        out = tmp_path / "out"
        (out / output).mkdir(parents=True)
        argv = [command, "--features", fixture_csv, "--out", out, "--trials", "1", *extra]
        assert main([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert "cannot write " in err and f"{out / output}: " in err

    def test_stdout_clean_on_error(self, tmp_path):
        proc = run_cli(
            "evaluate", "--method", "kfda", "--features", tmp_path / "none.csv",
            "--out", tmp_path / "x",
        )
        assert proc.returncode == 2
        assert proc.stdout == ""


class TestModelFileFormat:
    def test_versioned_json_with_required_fields(self, fixture_csv, tmp_path):
        out = tmp_path / "m"
        assert main(
            [
                "train", "--method", "kfda", "--features", str(fixture_csv),
                "--out", str(out), "--seed", "1",
            ]
        ) == 0
        doc = json.loads((out / "model.json").read_text())
        assert doc["format"] == "kfmetric-model"
        assert doc["version"] == 1
        for key in ("n", "d", "p", "regularizer", "eigvals", "A", "train_features", "kernel_config"):
            assert key in doc
        assert len(doc["A"]) == doc["n"]
        assert len(doc["A"][0]) == doc["p"]
        assert len(doc["train_features"][0]) == doc["d"]


def _without(doc, *keys):
    """Copy of a model document with the field at the nested ``keys`` path removed."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in keys[:-1]:
        node = node[key]
    del node[keys[-1]]
    return doc


@pytest.fixture(scope="module")
def model_doc(fixture_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    assert main(
        [
            "train", "--method", "kfda", "--features", str(fixture_csv),
            "--out", str(out), "--seed", "1",
        ]
    ) == 0
    return json.loads((out / "model.json").read_text())


def _with_config(doc, **fields):
    """Copy of a model document with ``fields`` set in its kernel_config."""
    return {**doc, "kernel_config": {**doc["kernel_config"], **fields}}


def _with_accuracies(doc, **fields):
    """Copy of an mkl model document with ``fields`` set in its CV accuracies."""
    return _with_config(doc, accuracies={**doc["kernel_config"]["accuracies"], **fields})


@pytest.mark.parametrize(
    "method, corrupt, message",
    [
        ("kfda", lambda doc: _without(doc, "kernel_config", "width"),
         "{path}: kernel_config lacks field 'width'"),
        ("kfda", lambda doc: _with_config(doc, type="svm"),
         "{path}: unknown kernel config type 'svm'"),
        ("sm-mfml", lambda doc: _without(doc, "kernel_config", "type"),
         "{path}: unknown kernel config type None"),
        ("sm-mfml", lambda doc: _with_config(doc, bank_specs=4),
         "{path}: malformed kernel_config: "),
        ("kfda", lambda doc: [doc], "not a kfmetric-model file"),
        ("kfda", lambda doc: _without(doc, "A"), "lacks field 'A'"),
        ("kfda", lambda doc: {**doc, "p": doc["p"] + 1}, "'A' has shape"),
        ("kfda", lambda doc: {**doc, "meta": {**doc["meta"], "trial_seed": "x"}},
         "meta field 'trial_seed' has the wrong type"),
        ("kfda", lambda doc: {**doc, "meta": {**doc["meta"], "trial_seed": True}},
         "meta field 'trial_seed' has the wrong type"),
        ("kfda", lambda doc: {**doc, "meta": {**doc["meta"], "train_fraction": [0.5]}},
         "meta field 'train_fraction' has the wrong type"),
        ("kfda", lambda doc: {**doc, "meta": {**doc["meta"], "trial_seed": -1}},
         "seed must be non-negative"),
        ("kfda", lambda doc: {**doc, "p": 0, "A": [[] for _ in doc["A"]], "eigvals": []},
         "'p' must be >= 1"),
        ("kfda", lambda doc: _with_config(doc, width=True), "rbf kernel needs width"),
        ("kfda", lambda doc: _with_config(doc, width=1e308), "rbf kernel needs width"),
        ("sm-mfml", lambda doc: _with_config(doc, pair=[0, 0.5]), "integer bank indices"),
        ("sm-mfml", lambda doc: _with_config(doc, pair=[True, 0]), "integer bank indices"),
        ("sm-mfml", lambda doc: _with_config(doc, tau=True), "tau must be a number"),
        ("np-mfml", lambda doc: _with_config(doc, n_top=True), "n_top must be an integer"),
        ("np-mfml", lambda doc: _with_config(
            doc, weights=[repr(w) for w in doc["kernel_config"]["weights"]]),
         "np weights must be numbers"),
        ("np-mfml", lambda doc: _with_config(
            doc, weights=[True] + [False] * (len(doc["kernel_config"]["weights"]) - 1), n_top=1),
         "np weights must be numbers"),
        ("np-mfml", lambda doc: _with_accuracies(
            doc, pis=[True] + doc["kernel_config"]["accuracies"]["pis"][1:]),
         "accuracies must be numbers"),
        ("sm-mfml", lambda doc: _with_accuracies(doc, folds="4"),
         "folds and fold_seed must be integers"),
        ("sm-mfml", lambda doc: _with_accuracies(doc, folds=4.0),
         "folds and fold_seed must be integers"),
        ("np-mfml", lambda doc: _with_accuracies(doc, fold_seed=True),
         "folds and fold_seed must be integers"),
        ("sm-mfml", lambda doc: _with_accuracies(doc, pis=[0.5]),
         "accuracies hold 1 pis for a 4-kernel bank"),
        ("np-mfml", lambda doc: _with_accuracies(
            doc, pis=doc["kernel_config"]["accuracies"]["pis"] * 2),
         "accuracies hold 8 pis for a 4-kernel bank"),
        ("sm-mfml", lambda doc: _with_accuracies(doc, folds=-5),
         "folds must be >= 2 and fold_seed >= 0, got -5 and "),
        ("np-mfml", lambda doc: _with_accuracies(doc, folds=1),
         "folds must be >= 2 and fold_seed >= 0, got 1 and "),
        ("sm-mfml", lambda doc: _with_accuracies(doc, fold_seed=-1),
         "folds must be >= 2 and fold_seed >= 0, got 4 and -1"),
        ("sm-mfml", lambda doc: _with_config(doc, weights=[True]),
         "sm variant fields ('weights', 'n_top') must be None"),
        ("np-mfml", lambda doc: _with_config(doc, pair=[True, "y"], tau="x"),
         "np variant fields ('pair', 'tau') must be None"),
        ("kfda", lambda doc: {**doc, "eigvals": [float(k) for k in range(doc["p"])]},
         "'eigvals' must be non-increasing"),
        ("kfda", lambda doc: {**doc, "regularizer": -1.0},
         "{path}: 'regularizer' must be non-negative and finite, got -1.0"),
        ("kfda", lambda doc: {**doc, "regularizer": math.nan},
         "{path}: 'regularizer' must be non-negative and finite, got nan"),
        ("kfda", lambda doc: _with_config(doc, kind="linear", width="abc"),
         "linear kernel takes no width, got 'abc'"),
        ("kfda", lambda doc: _with_config(doc, kind="poly2", width=[1, 2]),
         "poly2 kernel takes no width, got [1, 2]"),
        ("kfda", lambda doc: _with_config(doc, kind="linear", width=-5.0),
         "linear kernel takes no width, got -5.0"),
        ("kfda", lambda doc: _with_config(doc, kind="poly2", width=math.nan),
         "poly2 kernel takes no width, got nan"),
        ("kfda", lambda doc: {**doc, "A": [[math.nan] * doc["p"]] + doc["A"][1:]},
         "{path}: 'A' has non-finite entries"),
        # only a missing or null accuracies field means none
        ("sm-mfml", lambda doc: _with_config(doc, accuracies=[]),
         "{path}: malformed kernel_config: "),
        ("sm-mfml", lambda doc: _with_config(doc, accuracies={}),
         "{path}: kernel_config lacks field 'pis'"),
        ("sm-mfml", lambda doc: _with_config(doc, accuracies=0),
         "{path}: malformed kernel_config: "),
        ("sm-mfml", lambda doc: _with_config(doc, accuracies=""),
         "{path}: malformed kernel_config: "),
        ("np-mfml", lambda doc: _with_config(doc, accuracies=False),
         "{path}: malformed kernel_config: "),
    ],
    ids=["no-kernel-width", "kernel-type-unknown", "kernel-type-missing", "bank-not-list",
         "json-list", "no-A", "p-mismatch", "seed-string", "seed-bool",
         "fraction-list", "seed-negative", "p-zero", "width-bool", "width-huge", "sm-pair-float",
         "sm-pair-bool", "sm-tau-bool", "np-n-top-bool", "np-weights-string", "np-weights-bool",
         "pis-bool", "folds-string", "folds-float", "fold-seed-bool", "pis-short", "pis-long",
         "folds-negative", "folds-one", "fold-seed-negative", "sm-with-np-weights",
         "np-with-sm-pair-tau", "eigvals-increasing", "regularizer-negative", "regularizer-nan",
         "linear-width-string", "poly2-width-list", "linear-width-negative", "poly2-width-nan",
         "A-nan", "accuracies-empty-list", "accuracies-empty-object", "accuracies-zero",
         "accuracies-empty-string", "accuracies-false"],
)
def test_malformed_model_file_exit_2(model_doc, mkl_model_paths, fixture_csv, tmp_path, method,
                                     corrupt, message):
    doc = model_doc if method == "kfda" else json.loads(mkl_model_paths[method].read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupt(doc)))
    proc = run_cli("evaluate", "--features", fixture_csv, "--out", tmp_path / "ev", "--model", bad)
    assert proc.returncode == 2, proc.stderr
    assert message.format(path=bad) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_non_utf8_model_file_exit_2(model_doc, fixture_csv, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff" + json.dumps(model_doc).encode())
    proc = run_cli("evaluate", "--features", fixture_csv, "--out", tmp_path / "ev", "--model", bad)
    assert proc.returncode == 2, proc.stderr
    assert "not a valid model file" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def mkl_model_paths(fixture_csv, tmp_path_factory):
    paths = {}
    for method in ("np-mfml", "sm-mfml"):
        out = tmp_path_factory.mktemp(method)
        assert main(
            [
                "train", "--method", method, "--features", str(fixture_csv), "--out", str(out),
                "--seed", "1", "--q", "4", "--folds", "4", "--n-grid", "2",
            ]
        ) == 0
        paths[method] = out / "model.json"
    return paths


def _nan_tau(cfg):
    cfg["tau"] = float("nan")


def _nan_weight(cfg):
    cfg["weights"][cfg["weights"].index(max(cfg["weights"]))] = float("nan")


def _overflowing_weights(cfg):
    # finite weights whose sum overflows
    cfg["weights"] = [1e308 if w else 0.0 for w in cfg["weights"]]


@pytest.mark.parametrize(
    "method, corrupt, message",
    [("sm-mfml", _nan_tau, "tau must be finite"), ("np-mfml", _nan_weight, "finite"),
     ("np-mfml", _overflowing_weights, "np weights must sum to 1, got np.float64(inf)")],
    ids=["sm-tau-nan", "np-weight-nan", "np-weight-sum-overflows"],
)
def test_non_finite_mkl_model_exit_2(mkl_model_paths, fixture_csv, tmp_path, method, corrupt,
                                     message):
    doc = json.loads(mkl_model_paths[method].read_text())
    corrupt(doc["kernel_config"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))  # writes the NaN literal that json.loads accepts
    proc = run_cli("evaluate", "--features", fixture_csv, "--out", tmp_path / "ev", "--model", bad)
    assert proc.returncode == 2, proc.stdout
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


# each draw mixes values a run accepts with nan, inf, 0, negatives and out-of-range ones
_BAD = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0])


@given(
    command=st.sampled_from(["cv", "kfda", "np-mfml", "sm-mfml"]),
    eps=st.one_of(st.floats(1e-9, 10.0), _BAD),
    taus=st.lists(st.one_of(st.floats(0.0, 10.0), _BAD), min_size=1, max_size=3),
    n_grid=st.lists(st.one_of(st.integers(1, 3), st.integers(-2, 6)), min_size=1, max_size=3),
    folds=st.one_of(st.integers(2, 4), st.integers(-1, 8)),
    q=st.one_of(st.integers(2, 4), st.integers(-1, 4)),
)
@settings(max_examples=100, deadline=None)
def test_numeric_flags_fuzz(fixture_csv, tmp_path_factory, command, eps, taus, n_grid, folds, q):
    """cv and one-trial evaluate exit 0, 2 or 3 on any numeric flag, never with a traceback."""
    argv = ["cv"] if command == "cv" else ["evaluate", "--method", command, "--trials", "1"]
    argv += [
        "--features", str(fixture_csv), "--out", str(tmp_path_factory.getbasetemp() / "fuzz"),
        f"--eps={eps!r}", f"--tau-grid={','.join(map(repr, taus))}",
        f"--n-grid={','.join(map(str, n_grid))}", f"--folds={folds}", f"--q={q}",
    ]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 2, 3), argv
    assert "Traceback" not in stderr.getvalue()
    if not all(math.isfinite(v) for v in (eps, *taus)):
        assert code == 2, argv


def _exit_code(argv) -> int:
    """``main(argv)`` with its output swallowed and argparse's usage exit read as its code;
    any other exception it lets out fails the test."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main([str(a) for a in argv])
        except SystemExit as exc:
            return exc.code


# cells an input file may hold: well-formed values and the malformed kinds a reader must reject
_CELLS = st.one_of(
    st.sampled_from(["0", "1", "2", "1.5", "-2e3", "nan", "inf", "-inf", "1e400", "1e160", "",
                     " ", "x", '"', "-1", "0.5", "full", "true", "ture", "1,2", "9" * 30, "é"]),
    st.text(max_size=4),
)
_NUMBERS = st.floats(-10.0, 10.0, allow_nan=False).map(repr)


@st.composite
def _feature_file(draw) -> bytes:
    d = draw(st.integers(0, 3))
    header = draw(st.one_of(st.just(["id", "cam"] + [f"f{j + 1}" for j in range(d)]),
                            st.lists(_CELLS, max_size=5)))
    row = st.one_of(
        st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.sampled_from(["0", "1"]),
                  st.lists(st.one_of(_NUMBERS, _CELLS), min_size=d, max_size=d))
        .map(lambda r: [r[0], r[1], *r[2]]),
        st.lists(_CELLS, max_size=d + 3),
    )
    rows = draw(st.lists(row, max_size=10))
    text = "\n".join(",".join(cells) for cells in [header, *rows]).encode()
    return draw(st.one_of(st.just(text), st.binary(max_size=40).map(lambda b: text + b)))


@given(content=_feature_file())
@settings(max_examples=150, deadline=None)
def test_feature_file_fuzz(tmp_path_factory, content):
    """A feature CSV either loads or raises InputError; evaluate exits 0, 2 or 3."""
    work = tmp_path_factory.getbasetemp() / "fuzz-features"
    work.mkdir(exist_ok=True)
    path = work / "features.csv"
    path.write_bytes(content)
    try:
        load_features(path)
    except InputError:
        pass
    argv = ["evaluate", "--method", "euclidean", "--trials", "1", "--features", path,
            "--out", work / "out"]
    assert _exit_code(argv) in (0, 2, 3)


_CONFIG_KEYS = st.sampled_from([*PARSERS, "bogus", ""])


@given(
    lines=st.lists(
        st.one_of(
            st.tuples(_CONFIG_KEYS, _CELLS).map(lambda kv: f"{kv[0]}={kv[1]}"),
            _CELLS,
            st.just("# comment"),
        ),
        max_size=6,
    ),
    tail=st.binary(max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_config_file_fuzz(fixture_csv, tmp_path_factory, lines, tail):
    """A config file either parses or raises InputError; evaluate exits 0, 2 or 3."""
    work = tmp_path_factory.getbasetemp() / "fuzz-config"
    work.mkdir(exist_ok=True)
    path = work / "run.cfg"
    path.write_bytes("\n".join(lines).encode() + tail)
    try:
        load_config_file(path)
    except InputError:
        pass
    # the flags pin a cheap run, so the file's values are parsed and validated only
    argv = ["evaluate", "--config", path, "--method", "euclidean", "--trials", "1",
            "--threads", "1", "--features", fixture_csv, "--out", work / "out"]
    assert _exit_code(argv) in (0, 2, 3)


def _run_parsers() -> dict:
    """The subparsers that take run flags, by command name."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: parser for name, parser in sub.choices.items() if name != "synth"}


def test_one_flag_per_setting():
    """Every RunConfig field has one parser entry and is the dest of one flag per run command."""
    names = sorted(f.name for f in fields(RunConfig))
    assert sorted(PARSERS) == names
    for command, parser in _run_parsers().items():
        dests = [a.dest for a in parser._actions if a.option_strings and a.dest in PARSERS]
        assert sorted(dests) == names, command


@pytest.mark.parametrize(
    "field, bad, message",
    [
        ("method", "cosine",
         "method must be one of ('euclidean', 'kfda', 'np-mfml', 'sm-mfml'), got 'cosine'"),
        ("train_fraction", 0.0, "train_fraction must be in (0, 1), got 0.0"),
        ("train_fraction", 1.0, "train_fraction must be in (0, 1), got 1.0"),
        ("trials", 0, "trials must be >= 1, got 0"),
        ("q", 0, "q must be >= 1, got 0"),
        ("width_lo", 0.0, "need 0 < width_lo < width_hi < inf, got 0.0, 10.0"),
        ("width_lo", 10.0, "need 0 < width_lo < width_hi < inf, got 10.0, 10.0"),
        ("width_hi", math.inf, "need 0 < width_lo < width_hi < inf, got 0.1, inf"),
        ("eps", 0.0, "eps must be positive and finite, got 0.0"),
        ("eps", math.nan, "eps must be positive and finite, got nan"),
        ("eps", math.inf, "eps must be positive and finite, got inf"),
        ("p", 0, "p must be >= 1 or 'full', got 0"),
        ("folds", 1, "folds must be >= 2, got 1"),
        ("threads", 0, "threads must be >= 1, got 0"),
        ("n_grid", (1, 0), "every N in n_grid must be >= 1"),
        ("tau_grid", (0.0, -1.0), "tau_grid values must be finite and non-negative"),
        ("tau_grid", (math.nan,), "tau_grid values must be finite and non-negative"),
        ("trials", True, "trials must be an integer, got True"),
        ("trials", 2.5, "trials must be an integer, got 2.5"),
        ("q", 3.5, "q must be an integer, got 3.5"),
        ("folds", 2.5, "folds must be an integer, got 2.5"),
        ("threads", 1.5, "threads must be an integer, got 1.5"),
        ("p", 2.5, "p must be an integer, got 2.5"),
        ("n_grid", (1.5,), "every N in n_grid must be an integer, got (1.5,)"),
        ("base_seed", 1.5, "seed must be an integer, got 1.5"),
        ("base_seed", True, "seed must be an integer, got True"),
        ("base_seed", -1, "seed must be non-negative, got -1"),
        ("include_distractors", "no", "include_distractors must be true or false, got 'no'"),
        ("eps", True, "eps must be a number, got True"),
        ("eps", "1", "eps must be a number, got '1'"),
        ("train_fraction", "0.5", "train_fraction must be a number, got '0.5'"),
        ("width_lo", True, "width_lo must be a number, got True"),
        ("width_hi", "9", "width_hi must be a number, got '9'"),
        ("tau_grid", ("a",), "tau_grid must be a tuple of numbers, got ('a',)"),
        ("tau_grid", (True,), "tau_grid must be a tuple of numbers, got (True,)"),
        ("n_grid", 3, "n_grid must be a tuple of integers, got 3"),
    ],
    ids=["method-unknown", "train-fraction-zero", "train-fraction-one", "trials-zero", "q-zero",
         "width-lo-zero", "width-lo-equal-hi", "width-hi-inf", "eps-zero", "eps-nan", "eps-inf",
         "p-zero", "folds-one", "threads-zero", "n-grid-zero", "tau-grid-negative", "tau-grid-nan",
         "trials-bool", "trials-float", "q-float", "folds-float", "threads-float", "p-float",
         "n-grid-float", "base-seed-float", "base-seed-bool", "base-seed-negative",
         "include-distractors-string", "eps-bool", "eps-string", "train-fraction-string",
         "width-lo-bool", "width-hi-string", "tau-grid-string", "tau-grid-bool", "n-grid-int"],
)
def test_run_config_checks_each_value_when_built(field, bad, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        RunConfig(**{field: bad})
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        replace(RunConfig(), **{field: bad})


# a valid value other than the default, for every RunConfig field
_OTHER_VALUES = {
    "method": "np-mfml", "features": "other.csv", "out": "elsewhere", "base_seed": 1,
    "trials": 3, "train_fraction": 0.25, "eps": 1e-3, "p": 2, "q": 5, "width_lo": 0.5,
    "width_hi": 4.0, "folds": 3, "n_grid": (1, 2), "tau_grid": (0.0, 0.5), "threads": 2,
    "include_distractors": False,
}


def test_digest_hashes_every_field_but_paths_and_threads():
    assert sorted(_OTHER_VALUES) == sorted(f.name for f in fields(RunConfig))
    base = RunConfig()
    moved = {name for name, value in _OTHER_VALUES.items()
             if replace(base, **{name: value}).digest() != base.digest()}
    assert moved == set(_OTHER_VALUES) - {"features", "out", "threads"}


@pytest.mark.parametrize(
    "ints, floats",
    [
        ({"width_hi": 10}, {"width_hi": 10.0}),
        ({"width_lo": 1, "width_hi": 3}, {"width_lo": 1.0, "width_hi": 3.0}),
        ({"eps": 1}, {"eps": 1.0}),
        ({"tau_grid": (0, 1)}, {"tau_grid": (0.0, 1.0)}),
        ({"tau_grid": [0, 1]}, {"tau_grid": (0.0, 1.0)}),
    ],
    ids=["width_hi", "widths", "eps", "tau_grid", "tau_grid-list"],
)
def test_digest_hashes_each_real_as_a_float(ints, floats):
    # a real given as an int runs as its float does, so it gets the same digest
    assert RunConfig(**ints).digest() == RunConfig(**floats).digest()


@pytest.mark.parametrize("missing", [False, True], ids=["unset", "missing-file"])
def test_feature_file_checked_before_out_is_made(tmp_path, capsys, missing):
    features = tmp_path / "nope.csv"
    out = tmp_path / "out"
    argv = ["evaluate", "--out", str(out)] + (["--features", str(features)] if missing else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    if missing:
        assert err == f"error: feature file does not exist: {features}\n"
    else:
        assert err == "error: no feature file configured\n"
    assert not out.exists()


def _run_config(argv):
    """The validated RunConfig of ``evaluate argv``, or 2 where the run would exit 2 instead."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return _config_from_args(build_parser().parse_args(["evaluate", *map(str, argv)]))
        except SystemExit as exc:
            return exc.code
        except InputError:
            return 2


_FLAGS = {
    a.dest: a.option_strings[0] for a in _run_parsers()["evaluate"]._actions if a.nargs != 0
}


@given(key=st.sampled_from(sorted(set(PARSERS) - {"include_distractors"})), text=_CELLS)
# argparse hands `--flag=--` over as [] without calling the flag's parser
@example(key="out", text="--")
@example(key="n_grid", text="--")
@settings(max_examples=200, deadline=None)
def test_flag_parses_as_config_file(fixture_csv, tmp_path_factory, key, text):
    """``--<flag>=<text>`` and a config line ``<key>=<text>`` give one RunConfig or both exit 2."""
    # a config line holds no line break, and its reader strips the value
    assume(text == text.strip() and "\n" not in text and "\r" not in text)
    path = tmp_path_factory.getbasetemp() / "flag-vs-file.cfg"
    path.write_text(f"{key}={text}\n", encoding="utf-8")
    base = [] if key == "features" else [f"--features={fixture_csv}"]
    from_flag = _run_config([*base, f"{_FLAGS[key]}={text}"])
    from_file = _run_config([*base, "--config", path])
    assert repr(from_flag) == repr(from_file)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["synth", "--identities", "10", "--out=--"], "--out"),
        (["synth", "--identities=--", "--out", "{tmp}/s.csv"], "--identities"),
        (["evaluate", "--features", "{csv}", "--method", "euclidean", "--trials", "1",
          "--out", "{tmp}/o", "--model=--"], "--model"),
    ],
    ids=["synth-out", "synth-identities", "evaluate-model"],
)
def test_non_run_flag_without_a_value_exits_2(fixture_csv, tmp_path, capsys, argv, flag):
    # argparse hands `--flag=--` over as [] without calling the flag's parser; a
    # flag that is not a run setting has no config text to parse it as
    argv = [a.format(tmp=tmp_path, csv=fixture_csv) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: argument {flag}: expected one argument\n"
    assert list(tmp_path.iterdir()) == []


def test_no_distractors_flag_is_config_false(fixture_csv, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("include_distractors=false\n")
    from_flag = _run_config(["--features", fixture_csv, "--no-distractors"])
    assert from_flag == _run_config(["--features", fixture_csv, "--config", path])
    assert from_flag.include_distractors is False
    assert _run_config(["--features", fixture_csv]).include_distractors is True


def _doc_paths(node, prefix=()):
    """Paths of keys and indices into a JSON document, the root included.

    Only the first two entries of a list are entered, so the scalar fields
    are drawn about as often as the entries of the large arrays.
    """
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node[:2]):
            yield from _doc_paths(child, prefix + (key,))


def _number_entries(doc) -> list:
    """(path, value) of every np weight and CV accuracy entry of a model document."""
    cfg = doc.get("kernel_config") if isinstance(doc, dict) else None
    if not isinstance(cfg, dict):
        return []
    out = []
    for path in (("kernel_config", "weights"), ("kernel_config", "accuracies", "pis")):
        node = doc
        for key in path:
            node = node.get(key) if isinstance(node, dict) else None
        if isinstance(node, list):
            out += [(path + (i,), v) for i, v in enumerate(node)]
    return out


_JSON_VALUES = st.sampled_from(
    [None, True, False, 0, 1, -1, 2, 2.5, 1e308, -1e308, "x", "", "0.5", "1", [], {}, [1.0],
     [[1.0]], [0, 1], math.nan, math.inf, -math.inf]
)


def _mutate(doc, path, op, value):
    """``doc`` with the node at ``path`` dropped, replaced by ``value`` or reshaped."""
    if not path:
        return copy.deepcopy(value) if op == "set" else [doc]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, node = path[-1], parent[path[-1]]
    if op == "drop":
        del parent[key]
    elif op == "set":
        parent[key] = copy.deepcopy(value)  # later mutations must not edit the strategy's value
    elif isinstance(node, list) and node:
        parent[key] = [node[1:], node + node[:1], [node]][value]
    else:
        parent[key] = [node]
    return doc


@given(
    method=st.sampled_from(["kfda", "np-mfml", "sm-mfml"]),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_model_file_fuzz(model_doc, mkl_model_paths, fixture_csv, tmp_path_factory, method,
                         data):
    """A mutated model.json either loads or raises InputError or NumericError;
    evaluate --model exits 0, 2 or 3. A retyped np weight or accuracy never loads."""
    doc = model_doc if method == "kfda" else json.loads(mkl_model_paths[method].read_text())
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        paths = st.sampled_from(list(_doc_paths(doc)))
        entries = [q for q, _ in _number_entries(doc)]
        # half the mutations of an mkl model retype one np weight or CV accuracy
        path = data.draw(paths | st.sampled_from(entries) if entries else paths)
        op = data.draw(st.sampled_from(["drop", "set", "reshape"] if path else ["set", "reshape"]))
        value = data.draw(_JSON_VALUES if op == "set" else st.integers(0, 2))
        doc = _mutate(doc, path, op, value)
        if not isinstance(doc, (dict, list)):
            break
    work = tmp_path_factory.getbasetemp() / "fuzz-model"
    work.mkdir(exist_ok=True)
    path = work / "model.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity go out as the literals json.loads reads
    if any(isinstance(v, (str, bool)) for _, v in _number_entries(doc)):
        with pytest.raises(InputError):
            load_model(path)
    else:
        try:
            load_model(path)
        except (InputError, NumericError):
            pass
    argv = ["evaluate", "--features", fixture_csv, "--out", work / "out", "--model", path]
    assert _exit_code(argv) in (0, 2, 3)
