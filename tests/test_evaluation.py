import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kfmetric
from kfmetric.config import RunConfig
from kfmetric.data import Dataset, SplitPlan, make_split
from kfmetric.errors import InputError, NumericError
from kfmetric.evaluation import (
    cmc_from_ranks,
    dimension_sweep,
    evaluate_model,
    fit_for_trial,
    run_trials,
    true_ranks,
    write_cmc_csv,
    write_sweep_csv,
)
from kfmetric.kernels import squared_distances
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

    @pytest.mark.parametrize("C", [1, 3, 20])
    def test_stacked_distances_and_ranks_match_per_matrix_calls(self, C):
        # rounded embeddings make exact distance ties; probe "zz" has no match and ranks 0
        rng = np.random.default_rng(C)
        probe_ids = np.array(["a", "b", "c", "zz", "a"])
        gallery_ids = np.array(["c", "a", "b", "a", "d", "b"])
        Yp = np.round(rng.normal(size=(C, 5, 3)))
        Yg = np.round(rng.normal(size=(C, 6, 3)))
        dists = squared_distances(Yp, Yg)
        ranks = true_ranks(dists, probe_ids, gallery_ids)
        assert dists.shape == (C, 5, 6) and ranks.shape == (C, 5)
        ties = 0
        for c in range(C):
            one = squared_distances(Yp[c], Yg[c])
            assert np.array_equal(dists[c], one)
            assert np.array_equal(ranks[c], true_ranks(one, probe_ids, gallery_ids))
            assert ranks[c].tolist() == argsort_ranks(one, probe_ids, gallery_ids)
            ties += sum(len(set(row)) < len(row) for row in one.tolist())
        assert ranks[:, 3].tolist() == [0] * C
        assert ties > 0, "fixture regressed: no tied scores"

    def test_one_non_finite_matrix_fails_the_stack(self):
        dists = np.ones((3, 2, 2))
        dists[2, 1, 0] = np.nan
        with pytest.raises(NumericError, match="^non-finite matching score$"):
            true_ranks(dists, ["a", "b"], ["a", "b"])
        with pytest.raises(InputError, match="need a 2 x 2 score matrix"):
            true_ranks(np.ones((3, 2, 3)), ["a", "b"], ["a", "b"])


class TestRankProbe:
    def test_euclidean_baseline(self):
        gallery = np.array([[0.0, 0.0], [5.0, 5.0], [1.0, 1.0]])
        dists = euclidean_score_matrix(np.array([[0.9, 0.9]]), gallery)
        assert true_ranks(dists, ["b"], ["a", "c", "b"]).tolist() == [1]

    def test_with_trained_model(self, separable_ds):
        plan = make_split(separable_ds, 0)
        model = fit_for_trial(separable_ds, plan, QUIET)
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

    def test_report_is_read_only_and_non_decreasing(self, confounded_ds):
        report = run_trials(confounded_ds, "euclidean", 3, 0, QUIET)
        assert report.per_trial.shape == (3, len(report.ranks))
        assert report.mean_accuracy.shape == (len(report.ranks),)
        assert (np.diff(report.mean_accuracy) >= 0).all()
        assert not report.per_trial.flags.writeable
        assert not report.mean_accuracy.flags.writeable

    def test_method_and_trials_validated(self, separable_ds):
        with pytest.raises(InputError, match="method"):
            run_trials(separable_ds, "cosine", 1, 0, QUIET)
        with pytest.raises(InputError, match="trials"):
            run_trials(separable_ds, "kfda", 0, 0, QUIET)

    @pytest.mark.parametrize(
        "trials, seed, message",
        [(2.5, 0, "trials must be an integer, got 2.5"),
         (1, 1.5, "seed must be an integer, got 1.5")],
        ids=["trials-float", "seed-float"],
    )
    def test_non_integer_trials_or_seed_rejected(self, separable_ds, trials, seed, message):
        # a float count reached range() as a bare TypeError
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            run_trials(separable_ds, "euclidean", trials, seed, QUIET)

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

    @pytest.mark.parametrize(
        "exc",
        [KeyError("boom"), UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")],
        ids=["key-error", "unicode-decode-error"],
    )
    def test_other_exceptions_pass_through_unprefixed(self, separable_ds, monkeypatch, exc):
        # only the package's own errors get the trial prefix; anything else is a
        # bug and keeps its type and arguments, never becoming a numeric failure
        from kfmetric import evaluation

        def broken(*args):
            raise exc

        monkeypatch.setattr(evaluation, "fit_for_trial", broken)
        with pytest.raises(type(exc)) as info:
            run_trials(separable_ds, "kfda", 1, 0, QUIET)
        assert info.value is exc

    @pytest.mark.parametrize(
        "threads, cpus, workers",
        [(64, 2, 2), (8, 16, 3), (2, 16, 2), (4, 1, None)],  # None: the trials run in turn
    )
    def test_the_trial_pool_is_bounded_by_the_trials_and_cpus(
        self, separable_ds, monkeypatch, threads, cpus, workers
    ):
        from concurrent.futures import ThreadPoolExecutor

        from kfmetric import evaluation, threads as thread_rule

        pools = []

        class Recorded(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(evaluation, "ThreadPoolExecutor", Recorded)
        monkeypatch.setattr(thread_rule, "_cpus_usable", lambda: cpus)
        run_trials(separable_ds, "euclidean", 3, 0, dataclasses.replace(QUIET, threads=threads))
        assert pools == ([] if workers is None else [workers])

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
        # the sweep runs its trials through the same pool; its means keep their bits
        p_values = [1, 5, 20]
        assert dimension_sweep(ds, "np-mfml", p_values, 3, 2, threaded_cfg) == dimension_sweep(
            ds, "np-mfml", p_values, 3, 2, QUIET
        )


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

    def _ds_with_probe_only_identity(self):
        """p0..p5 in both cameras, extra0 in the gallery camera only, extra1 in the probe one."""
        ds = self._ds_with_gallery_only_identity()
        cams = list(ds.cameras)
        cams[-1] = 0  # flip one distractor into a probe-only identity
        return Dataset(ds.features, ds.identities, tuple(cams))

    def test_probe_without_match_excluded_with_warning(self):
        ds2 = self._ds_with_probe_only_identity()
        cfg = RunConfig(trials=1, folds=2, q=2, train_fraction=0.5)
        with pytest.warns(UserWarning, match="lack a sample .* excluded from splitting"):
            report = run_trials(ds2, "euclidean", 1, 0, cfg)
        assert report.mean_accuracy[-1] == 1.0  # excluded probe does not drag the curve

    def _hand_plan(self, test_ids) -> SplitPlan:
        return SplitPlan(frozenset({"p0", "p1", "p2"}), frozenset(test_ids), 0, 0, 1)

    def test_hand_built_plan_excludes_unmatched_probe(self):
        # make_split never puts extra1 in test_ids; a hand-built plan can
        ds = self._ds_with_probe_only_identity()
        cfg = RunConfig(trials=1, folds=2, q=2)
        matched = self._hand_plan({"p3", "p4", "p5"})
        model = fit_for_trial(ds, matched, cfg)
        with pytest.warns(UserWarning, match="excluded 1 probes without a gallery match"):
            report = evaluate_model(ds, model, self._hand_plan({"p3", "p4", "p5", "extra1"}), cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reference = evaluate_model(ds, model, matched, cfg)
        assert report.ranks == reference.ranks
        np.testing.assert_array_equal(report.per_trial, reference.per_trial)

    def test_hand_built_plan_without_any_match_rejected(self):
        ds = self._ds_with_probe_only_identity()
        cfg = RunConfig(trials=1, folds=2, q=2)
        model = fit_for_trial(ds, self._hand_plan({"p3", "p4", "p5"}), cfg)
        # extra1's probe faces a gallery of the distractor extra0 alone
        with pytest.raises(InputError, match="absent from the gallery"):
            evaluate_model(ds, model, self._hand_plan({"extra1"}), cfg)


class TestEvaluateModel:
    def test_single_trial_report(self, separable_ds):
        plan = make_split(separable_ds, 3)
        model = fit_for_trial(separable_ds, plan, QUIET)
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
        # the trial loop names the trial once
        with pytest.raises(InputError, match=r"^trial 0: p=40 out of range"):
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

    @pytest.mark.parametrize("p_values", [[0], [-1, 2]])
    def test_rejects_p_below_one(self, separable_ds, p_values):
        with pytest.raises(InputError, match=">= 1"):
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


# sha256 of the per-probe true ranks of one run_trials trial at seed 0 on the
# 80-identity noise-0.6 fixture, for each method; an optimization that moves a
# single rank changes its digest
RANK_DIGESTS = {
    "kfda": "1a58c57acfd79e9660471bc202d6cd57ca778110a97f980ed5a03db33117fccd",
    "np-mfml": "4fe35ab101b28d05698b75d07e142e5bc4f40a1bb35d2b602a73557fd321e93d",
    "sm-mfml": "4fe35ab101b28d05698b75d07e142e5bc4f40a1bb35d2b602a73557fd321e93d",
}


def _trial_ranks_digest(monkeypatch, ds, method) -> str:
    """sha256 of the per-probe true ranks of one run_trials trial at seed 0."""
    import hashlib

    from kfmetric import evaluation

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
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("method", sorted(RANK_DIGESTS))
def test_rank_decisions_are_locked(monkeypatch, method):
    ds = make_synthetic(80, 2, 20, noise=0.6, view_offset=30.0, seed=0)
    assert _trial_ranks_digest(monkeypatch, ds, method) == RANK_DIGESTS[method]


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


def _cv_rows(monkeypatch, ds, method) -> tuple:
    """The bank's per-fold CV rank-1 and the N or tau grid's rows of one trial at seed 0."""
    from kfmetric import mkl

    seen = []

    def recorded(self, kernels, _fn=mkl.FoldPlan.rank1):
        seen.append(_fn(self, kernels))
        return seen[-1]

    monkeypatch.setattr(mkl.FoldPlan, "rank1", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_trials(ds, method, 1, 0, RunConfig())
    [per_fold, grid] = seen
    return per_fold, grid


@pytest.mark.parametrize("method", ["np-mfml", "sm-mfml"])
def test_cv_scores_are_locked(monkeypatch, method):
    ds = make_synthetic(80, 2, 20, noise=0.6, view_offset=30.0, seed=0)
    per_fold, grid = _cv_rows(monkeypatch, ds, method)
    assert _digest(per_fold) == CV_DIGESTS["per_fold"]
    assert _digest(grid) == CV_DIGESTS[method]


# The same locks on a three-view fixture (60 identities, every training class
# of three samples, where a class mean is no exact power-of-two scaling):
# the trial's ranks per method, then the CV rows as for CV_DIGESTS
THREE_VIEW_DIGESTS = {
    "kfda": "1eb38a34a00e05afda9bc2ddb87fd1a6170840503c7bef7a9273fb77e88e25e8",
    "np-mfml": "fe2407ab99ae57af33e5d4a83809396dd17a34839f05fb226d210971de3ccfed",
    "sm-mfml": "481719f436821d74c3e446a95e9d92d18b8ba3de5a65c86319c0599ca8d25db6",
    "per_fold": "ce97228a2879074d5096ac0db5f67a1dc7843c1192e4634ff4726e12bf6ffb4a",
    "np-mfml grid": "890bf5c136a00d098952e1daa7cff70e90e990aef0cee5ebd769645b8eb8e5d9",
    "sm-mfml grid": "308f5d0cc0571d7473cbb07d77e5225b29c739e598813fcc4dccc4474826db21",
}


def _three_view_ds():
    return make_synthetic(60, 3, 20, noise=0.6, view_offset=30.0, seed=0)


@pytest.mark.parametrize("method", ["kfda", "np-mfml", "sm-mfml"])
def test_three_view_rank_decisions_are_locked(monkeypatch, method):
    digest = _trial_ranks_digest(monkeypatch, _three_view_ds(), method)
    assert digest == THREE_VIEW_DIGESTS[method]


@pytest.mark.parametrize("method", ["np-mfml", "sm-mfml"])
def test_three_view_cv_scores_are_locked(monkeypatch, method):
    per_fold, grid = _cv_rows(monkeypatch, _three_view_ds(), method)
    assert _digest(per_fold) == THREE_VIEW_DIGESTS["per_fold"]
    assert _digest(grid) == THREE_VIEW_DIGESTS[f"{method} grid"]


# The same lock at the benchmark's scale (see scale_ranks.py for the two runs),
# with BLAS pinned to 1 and to 2 threads: at 1200 identities one kfda rank
# moves with the BLAS thread count, so each setting has its own digest; so
# does the held-out gallery's embedding, whose GEMM bits follow it
SCALE_DIGESTS = {
    1: {
        "kfda_large": "a13aa6c318a239940f1f7a7b8ae3d934391e85cbb92b90e6eac455cacc4a5ab0",
        "sm_query": "9c7740a2a75142ba81379442f16f82c80c867ce4d778db22fc361f9c99f0333d",
        "sm_query_gallery": "d740f103fa3e255a432a66087f90de3d8caadf714ae0ce9471b2ea7def2f5eb3",
    },
    2: {
        "kfda_large": "11229ff6155b58b7b149f2693f80caca1d2032eb103ff8d68595cb1d7b4407a3",
        "sm_query": "9c7740a2a75142ba81379442f16f82c80c867ce4d778db22fc361f9c99f0333d",
        "sm_query_gallery": "3a2e4f1b2a8aebe1241354ecbb867c7efad5b97db9bbcab8ce96d56be45118ea",
    },
}


def _scale_ranks(workdir, threads, *flags) -> dict:
    """What scale_ranks.py prints, run in a fresh interpreter with BLAS on ``threads`` threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads))
    src = str(Path(kfmetric.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = Path(__file__).with_name("scale_ranks.py")
    run = subprocess.run([sys.executable, str(script), str(workdir), *flags], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


@pytest.mark.parametrize("threads", sorted(SCALE_DIGESTS))
def test_rank_decisions_at_scale_are_locked(tmp_path, threads):
    if threads > len(os.sched_getaffinity(0)):
        pytest.skip(f"BLAS runs fewer than {threads} threads on this machine")
    assert _scale_ranks(tmp_path, threads) == SCALE_DIGESTS[threads]


def test_the_helper_leaves_the_scale_outputs_unchanged(tmp_path):
    # with one BLAS thread and two CPUs the gallery's 900 x 600 x 299 products
    # reach the size rule, so its kernel blocks and products use the helper
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one usable CPU: no helper runs either way")
    helped = _scale_ranks(tmp_path, 1)
    assert _scale_ranks(tmp_path, 1, "--one-cpu") == helped
