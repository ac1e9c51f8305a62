import json
import subprocess
import sys

import numpy as np
import pytest

from kfmetric.cli import main
from kfmetric.data import load_features
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

    def test_p_full_flag(self, fixture_csv, tmp_path):
        out = tmp_path / "pf"
        proc = run_cli(
            "evaluate", "--method", "kfda", "--features", fixture_csv,
            "--out", out, "--seed", "0", "--trials", "1", "--p", "full",
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


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda doc: _without(doc, "kernel_config", "width"), "lacks field 'width'"),
        (lambda doc: [doc], "not a kfmetric-model file"),
        (lambda doc: _without(doc, "A"), "lacks field 'A'"),
        (lambda doc: {**doc, "p": doc["p"] + 1}, "'A' has shape"),
    ],
    ids=["no-kernel-width", "json-list", "no-A", "p-mismatch"],
)
def test_malformed_model_file_exit_2(model_doc, fixture_csv, tmp_path, corrupt, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupt(model_doc)))
    proc = run_cli("evaluate", "--features", fixture_csv, "--out", tmp_path / "ev", "--model", bad)
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
