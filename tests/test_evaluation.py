import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfmetric.config import RunConfig
from kfmetric.data import Dataset, make_split
from kfmetric.errors import InputError
from kfmetric.evaluation import (
    CmcReport,
    cmc_from_ranks,
    dimension_sweep,
    evaluate_model,
    fit_for_trial,
    run_trials,
    true_ranks,
    write_cmc_csv,
    write_sweep_csv,
)
from kfmetric.metric import euclidean_score_matrix, score_matrix
from kfmetric.synthetic import make_synthetic

QUIET = RunConfig(trials=3, folds=4, q=4, base_seed=0)


def argsort_ranks(dists, probe_ids, gallery_ids):
    """Reference: position of the first true match in a stable ascending sort; 0 if none."""
    out = []
    for u, row in enumerate(np.asarray(dists)):
        order = np.argsort(row, kind="stable")
        hits = [k for k, g in enumerate(order) if gallery_ids[g] == probe_ids[u]]
        out.append(hits[0] + 1 if hits else 0)
    return out


def rank_one(scores, probe_id, gallery_ids) -> int:
    return int(true_ranks(np.asarray([scores], dtype=float), [probe_id], gallery_ids)[0])


class TestRankScores:
    def test_hand_sorted_example_with_tie(self):
        # order (1, 3, 0, 4, 2): x is gallery item 3, tied with item 1 ahead of it
        scores = [0.3, 0.1, 0.9, 0.1, 0.5]
        assert rank_one(scores, "x", ["u", "v", "w", "x", "y"]) == 2

    def test_single_item_gallery(self):
        assert rank_one([0.4], "a", ["a"]) == 1

    def test_all_tied_scores_keep_gallery_order(self):
        assert rank_one([0.5, 0.5, 0.5], "c", ["a", "b", "c"]) == 3

    def test_absent_identity_ranks_zero(self):
        assert rank_one([0.1, 0.2], "zz", ["a", "b"]) == 0

    def test_score_count_mismatch(self):
        with pytest.raises(InputError, match="score matrix"):
            true_ranks(np.array([[0.1]]), ["a"], ["a", "b"])

    def test_monotone_transform_leaves_result_unchanged(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(size=(5, 8))
        ids = [f"g{k}" for k in range(8)]
        probes = ["g3", "g0", "g7", "g3", "zz"]
        base = true_ranks(scores, probes, ids)
        for transform in (lambda s: 2 * s + 1, np.exp, lambda s: s**3 + s):
            np.testing.assert_array_equal(true_ranks(transform(scores), probes, ids), base)

    def test_permutation_invariance_with_distinct_scores(self):
        rng = np.random.default_rng(1)
        scores = rng.permutation(np.linspace(0.1, 0.9, 7))
        ids = [f"g{k}" for k in range(7)]
        perm = rng.permutation(7)
        assert rank_one(scores[perm], "g2", [ids[j] for j in perm]) == rank_one(scores, "g2", ids)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_stable_argsort_reference(self, data):
        # integer scores force ties; ids drawn from a small pool repeat in the
        # gallery and leave some probes without a match
        m = data.draw(st.integers(1, 6), label="probes")
        g = data.draw(st.integers(1, 9), label="gallery")
        pool = st.integers(0, 4)
        probe_ids = data.draw(st.lists(pool, min_size=m, max_size=m), label="probe_ids")
        gallery_ids = data.draw(st.lists(pool, min_size=g, max_size=g), label="gallery_ids")
        scores = data.draw(
            st.lists(st.integers(0, 3), min_size=m * g, max_size=m * g), label="scores"
        )
        dists = np.array(scores, dtype=float).reshape(m, g)
        got = true_ranks(dists, np.array(probe_ids), np.array(gallery_ids))
        assert got.tolist() == argsort_ranks(dists, probe_ids, gallery_ids)


class TestRankProbe:
    def test_euclidean_baseline(self):
        gallery = np.array([[0.0, 0.0], [5.0, 5.0], [1.0, 1.0]])
        dists = euclidean_score_matrix(np.array([[0.9, 0.9]]), gallery)
        assert true_ranks(dists, ["b"], ["a", "c", "b"]).tolist() == [1]

    def test_with_trained_model(self, separable_ds):
        plan = make_split(separable_ds, 0)
        model = fit_for_trial(separable_ds, plan, "kfda", QUIET)
        probe_idx = sorted(separable_ds.samples_of(plan.test_ids, 0))
        gallery_idx = sorted(separable_ds.samples_of(plan.test_ids, 1))
        dists = score_matrix(
            model, separable_ds.features[probe_idx[:1]], separable_ds.features[gallery_idx]
        )
        ranks = true_ranks(
            dists,
            [separable_ds.identities[probe_idx[0]]],
            [separable_ds.identities[i] for i in gallery_idx],
        )
        assert ranks.tolist() == [1]


class TestCmc:
    def test_all_rank_one(self):
        np.testing.assert_array_equal(cmc_from_ranks([1] * 5, 4), np.ones(4))

    def test_hand_counts(self):
        np.testing.assert_allclose(cmc_from_ranks([1, 3], 3), [0.5, 0.5, 1.0])

    @given(
        ranks=st.lists(st.integers(1, 6), min_size=1, max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_non_decreasing_for_any_input(self, ranks):
        curve = cmc_from_ranks(ranks, 6)
        assert np.all(np.diff(curve) >= 0)
        assert curve[-1] == 1.0  # every true rank <= gallery size


class TestRunTrials:
    def test_euclidean_perfect_on_separable_data(self, separable_ds):
        report = run_trials(separable_ds, "euclidean", 2, 0, QUIET)
        assert report.rank_accuracy(1) == 1.0
        assert report.per_trial.shape[0] == 2

    def test_deterministic_including_digest(self, separable_ds):
        a = run_trials(separable_ds, "kfda", 2, 5, QUIET)
        b = run_trials(separable_ds, "kfda", 2, 5, QUIET)
        assert a.config_digest == b.config_digest
        np.testing.assert_array_equal(a.per_trial, b.per_trial)
        np.testing.assert_array_equal(a.mean_accuracy, b.mean_accuracy)

    def test_metric_learning_beats_baseline_on_confounded_views(self, confounded_ds):
        base = run_trials(confounded_ds, "euclidean", 3, 0, QUIET)
        learned = run_trials(confounded_ds, "kfda", 3, 0, QUIET)
        assert learned.rank_accuracy(1) > base.rank_accuracy(1)

    def test_trial_rows_depend_only_on_their_seed(self, separable_ds):
        full = run_trials(separable_ds, "kfda", 3, 10, QUIET)
        for t in range(3):
            single = run_trials(separable_ds, "kfda", 1, 10 + t, QUIET)
            np.testing.assert_array_equal(full.per_trial[t], single.per_trial[0])

    def test_final_rank_accuracy_is_one(self, separable_ds):
        report = run_trials(separable_ds, "euclidean", 2, 0, QUIET)
        assert report.mean_accuracy[-1] == 1.0

    def test_method_and_trials_validated(self, separable_ds):
        with pytest.raises(InputError, match="method"):
            run_trials(separable_ds, "cosine", 1, 0, QUIET)
        with pytest.raises(InputError, match="trials"):
            run_trials(separable_ds, "kfda", 0, 0, QUIET)

    def test_trial_failures_name_the_trial(self):
        # 3 identities: fraction 0.5 leaves one lonely test identity per
        # trial, but folds=4 cannot run on 2 train identities
        ds_small = Dataset(
            np.arange(12, dtype=float).reshape(6, 2),
            ("a", "a", "b", "b", "c", "c"),
            (0, 1, 0, 1, 0, 1),
        )
        cfg = RunConfig(trials=1, folds=4, q=3)
        with pytest.raises(InputError, match="trial 0"):
            run_trials(ds_small, "np-mfml", 1, 0, cfg)

    def test_threaded_matches_serial(self, tmp_path):
        # 80 identities at noise 0.6: rank-1 is well below 100% here, so a
        # thread-dependent ranking would show in the CMC bytes
        ds = make_synthetic(identities=80, dim=20, noise=0.6, view_offset=30.0, seed=0)
        threaded_cfg = dataclasses.replace(QUIET, threads=3)
        for method in ("kfda", "np-mfml", "sm-mfml"):
            serial = run_trials(ds, method, 3, 2, QUIET)
            threaded = run_trials(ds, method, 3, 2, threaded_cfg)
            write_cmc_csv(serial, tmp_path / f"{method}-serial.csv")
            write_cmc_csv(threaded, tmp_path / f"{method}-threaded.csv")
            assert (tmp_path / f"{method}-serial.csv").read_bytes() == (
                tmp_path / f"{method}-threaded.csv"
            ).read_bytes(), method
            assert serial.config_digest == threaded.config_digest


class TestDistractors:
    def _ds_with_gallery_only_identity(self):
        rng = np.random.default_rng(2)
        rows, ids, cams = [], [], []
        for i in range(6):
            for cam in (0, 1):
                rows.append(rng.normal(size=3) + i * 4.0)
                ids.append(f"p{i}")
                cams.append(cam)
        # two gallery-only distractors far from everyone
        for k in range(2):
            rows.append(rng.normal(size=3) + 100.0 + 8 * k)
            ids.append(f"extra{k}")
            cams.append(1)
        return Dataset(np.array(rows), tuple(ids), tuple(cams))

    def test_distractors_enlarge_gallery(self):
        ds = self._ds_with_gallery_only_identity()
        cfg = RunConfig(trials=1, folds=2, q=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with_d = run_trials(ds, "euclidean", 1, 0, cfg)
            without = run_trials(
                ds, "euclidean", 1, 0, dataclasses.replace(cfg, include_distractors=False)
            )
        assert with_d.ranks[-1] == without.ranks[-1] + 2

    def test_probe_without_match_excluded_with_warning(self):
        ds = self._ds_with_gallery_only_identity()
        # flip one distractor into a probe-only identity
        ids = list(ds.identities)
        cams = list(ds.cameras)
        cams[-1] = 0
        ds2 = Dataset(ds.features, tuple(ids), tuple(cams))
        cfg = RunConfig(trials=1, folds=2, q=2, train_fraction=0.5)
        with pytest.warns(UserWarning):
            report = run_trials(ds2, "euclidean", 1, 0, cfg)
        assert report.mean_accuracy[-1] == 1.0  # excluded probe does not drag the curve


class TestEvaluateModel:
    def test_single_trial_report(self, separable_ds):
        plan = make_split(separable_ds, 3)
        model = fit_for_trial(separable_ds, plan, "kfda", QUIET)
        report = evaluate_model(separable_ds, model, plan, QUIET)
        assert report.trials == 1
        assert report.rank_accuracy(1) == 1.0


class TestDimensionSweep:
    def test_full_dimension_matches_run_trials(self, separable_ds):
        rows = dimension_sweep(separable_ds, "kfda", [1, 5], 2, 0, QUIET)
        report = run_trials(separable_ds, "kfda", 2, 0, QUIET)
        sweep_at_full = dict(rows)[5]  # c-1 = 5 with 6 training identities
        assert sweep_at_full == pytest.approx(report.rank_accuracy(1), abs=1e-12)

    def test_one_row_per_requested_p(self, separable_ds):
        rows = dimension_sweep(separable_ds, "kfda", [1, 2, 3], 1, 0, QUIET)
        assert [p for p, _ in rows] == [1, 2, 3]

    def test_low_dimension_not_better(self, separable_ds):
        rows = dict(dimension_sweep(separable_ds, "kfda", [1, 5], 2, 0, QUIET))
        assert rows[1] <= rows[5] + 1e-12

    def test_rejects_euclidean_and_bad_p(self, separable_ds):
        with pytest.raises(InputError, match="learned model"):
            dimension_sweep(separable_ds, "euclidean", [1], 1, 0, QUIET)
        with pytest.raises(InputError, match="out of range"):
            dimension_sweep(separable_ds, "kfda", [40], 1, 0, QUIET)
        with pytest.raises(InputError, match="no p values"):
            dimension_sweep(separable_ds, "kfda", [], 1, 0, QUIET)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_rejects_fewer_than_one_trial(self, separable_ds, trials):
        with pytest.raises(InputError, match="trials must be >= 1"):
            dimension_sweep(separable_ds, "kfda", [1], trials, 0, QUIET)

    @pytest.mark.parametrize("p_values", [[2, 1, 1, 1], [1, 1, 2]])
    def test_rejects_repeated_p(self, separable_ds, p_values):
        with pytest.raises(InputError, match="distinct"):
            dimension_sweep(separable_ds, "kfda", p_values, 1, 0, QUIET)

    @pytest.mark.parametrize("p", [1.7, 1.0, True])
    def test_rejects_non_integer_p(self, separable_ds, p):
        with pytest.raises(InputError, match="integer"):
            dimension_sweep(separable_ds, "kfda", [p], 1, 0, QUIET)

    def test_numpy_integer_p_accepted(self, separable_ds):
        rows = dimension_sweep(separable_ds, "kfda", [np.int64(2)], 1, 0, QUIET)
        assert rows == dimension_sweep(separable_ds, "kfda", [2], 1, 0, QUIET)
        assert type(rows[0][0]) is int


class TestCsvWriters:
    def test_cmc_csv_layout_and_determinism(self, separable_ds, tmp_path):
        report = run_trials(separable_ds, "euclidean", 2, 0, QUIET)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_cmc_csv(report, p1)
        write_cmc_csv(report, p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().strip().splitlines()
        assert lines[0] == "rank,mean_accuracy,trial_1,trial_2"
        assert len(lines) == 1 + len(report.ranks)

    def test_sweep_csv_layout(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv([(1, 0.5), (2, 0.75)], path)
        assert path.read_text().splitlines() == ["p,rank1_mean", "1,0.5", "2,0.75"]


class TestCmcReportValidation:
    def test_rejects_decreasing_mean(self):
        with pytest.raises(Exception, match="non-decreasing"):
            CmcReport(
                ranks=(1, 2),
                mean_accuracy=np.array([0.9, 0.5]),
                per_trial=np.array([[0.9, 0.5]]),
                trials=1,
                config_digest="x",
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(Exception, match="per_trial"):
            CmcReport(
                ranks=(1, 2),
                mean_accuracy=np.array([0.5, 0.9]),
                per_trial=np.array([[0.5, 0.9]]),
                trials=2,
                config_digest="x",
            )


# sha256 of the per-probe true ranks of one run_trials trial at seed 0 on the
# 80-identity noise-0.6 fixture, for each method; an optimization that moves a
# single rank changes its digest
RANK_DIGESTS = {
    "kfda": "1a58c57acfd79e9660471bc202d6cd57ca778110a97f980ed5a03db33117fccd",
    "np-mfml": "4fe35ab101b28d05698b75d07e142e5bc4f40a1bb35d2b602a73557fd321e93d",
    "sm-mfml": "4fe35ab101b28d05698b75d07e142e5bc4f40a1bb35d2b602a73557fd321e93d",
}


@pytest.mark.parametrize("method", sorted(RANK_DIGESTS))
def test_rank_decisions_are_locked(monkeypatch, method):
    import hashlib

    from kfmetric import evaluation

    ds = make_synthetic(80, 2, 20, noise=0.6, view_offset=30.0, seed=0)
    seen = []

    def recorded(*args, _fn=evaluation.score_plan, **kwargs):
        seen.append(_fn(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(evaluation, "score_plan", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_trials(ds, method, 1, 0, RunConfig())
    [(ranks, gallery)] = seen
    text = f"{gallery}:" + ",".join(map(str, ranks))
    assert hashlib.sha256(text.encode()).hexdigest() == RANK_DIGESTS[method]


# sha256 of the CV scores behind those ranks, on the same fixture and trial:
# the bank's per-fold rank-1 (acc.per_fold) and the rank-1 rows of the np
# N-grid and sm tau-grid candidates; a change that moves one fold's rank-1
# fails here even when the final ranks hide it
CV_DIGESTS = {
    "per_fold": "01de71cfd0b83fb430d9bcdc592f2c269e434005302582bbcc135ec8e1eff2ab",
    "np-mfml": "90fa80acc6f335973d655706f558a30ef6b28885b33919e8a4b5582b8a56d7b1",
    "sm-mfml": "e5e7f5cccaefcf4ff5dbe33a71a45fd5dadf5735c99fbe7edafb43cd390da959",
}


def _digest(rows) -> str:
    import hashlib

    text = ";".join(",".join(repr(float(v)) for v in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("method", ["np-mfml", "sm-mfml"])
def test_cv_scores_are_locked(monkeypatch, method):
    from kfmetric import mkl

    ds = make_synthetic(80, 2, 20, noise=0.6, view_offset=30.0, seed=0)
    seen = []

    def recorded(self, kernels, _fn=mkl._FoldPlan.rank1):
        seen.append(_fn(self, kernels))
        return seen[-1]

    monkeypatch.setattr(mkl._FoldPlan, "rank1", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_trials(ds, method, 1, 0, RunConfig())
    [per_fold, grid] = seen
    assert _digest(per_fold) == CV_DIGESTS["per_fold"]
    assert _digest(grid) == CV_DIGESTS[method]
