import dataclasses
import threading
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfmetric import mkl
from kfmetric.config import RunConfig
from kfmetric.data import Dataset, SplitPlan, index_classes, make_split
from kfmetric.errors import InputError, NumericError
from kfmetric.evaluation import fit_for_trial, rbf_bank
from kfmetric.kernels import KernelSpec, config_from_dict, gram, grams, rms_width
from kfmetric.kfda import Whitening, load_model, save_model
from kfmetric.mkl import (
    KernelAccuracies,
    MklConfig,
    build_config,
    cv_kernel_accuracies,
    np_weights,
    select_sm_pair,
    write_cv_csv,
)
from kfmetric.synthetic import make_synthetic

from oracles import cv_fold_groups, cv_rank1_oracle
from test_threads import MODES, use_mode


class TestNpWeights:
    def test_worked_example_floats(self):
        beta = np_weights([0.9, 0.8, 0.5], N=2)
        assert beta[0] == pytest.approx(4.0 / 7.0, abs=1e-12)
        assert beta[1] == pytest.approx(3.0 / 7.0, abs=1e-12)
        assert beta[2] == 0.0

    def test_worked_example_exact_rationals(self):
        pis = [Fraction(9, 10), Fraction(8, 10), Fraction(5, 10)]
        beta = np_weights(pis, N=2)
        assert beta == [Fraction(4, 7), Fraction(3, 7), 0]

    def test_n_is_q_minus_one_zeroes_the_worst(self):
        beta = np_weights([0.7, 0.2, 0.9, 0.4], N=3)
        assert beta[1] == 0.0
        assert sum(beta) == pytest.approx(1.0, abs=1e-12)
        assert sum(1 for b in beta if b != 0) == 3

    def test_boundary_tie_falls_back_to_uniform(self):
        # N = 1: uniform and proportional weights both give the top kernel 1.0,
        # so the fallback changes nothing and is not reported
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beta = np_weights([0.6, 0.6, 0.2], N=1)
        assert beta == [1.0, 0.0, 0.0]  # stable order picks the first

    def test_full_tie_uniform_over_selection(self):
        with pytest.warns(UserWarning, match="tie"):
            beta = np_weights([0.5, 0.5, 0.5, 0.5], N=2)
        assert beta == [0.5, 0.5, 0.0, 0.0]

    def test_invalid_n(self):
        with pytest.raises(InputError, match="N must be"):
            np_weights([0.5, 0.6], N=0)
        with pytest.raises(InputError, match="N must be"):
            np_weights([0.5, 0.6], N=2)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_constraints_for_random_distinct_accuracies(self, data):
        q = data.draw(st.integers(3, 12))
        pis = data.draw(
            st.lists(
                st.floats(0.0, 1.0, allow_nan=False),
                min_size=q,
                max_size=q,
                unique=True,
            )
        )
        N = data.draw(st.integers(1, q - 1))
        beta = np_weights(pis, N)
        assert all(b >= 0 for b in beta)
        assert sum(beta) == pytest.approx(1.0, abs=1e-12)
        assert sum(1 for b in beta if b != 0) == N

    def test_shift_invariance_exact(self):
        pis = [Fraction(9, 10), Fraction(7, 10), Fraction(3, 10), Fraction(1, 10)]
        shift = Fraction(1, 7)
        for N in (1, 2, 3):
            assert np_weights(pis, N) == np_weights([v + shift for v in pis], N)

    def test_shift_invariance_floats(self):
        pis = [0.91, 0.55, 0.32, 0.18]
        shifted = [v + 0.05 for v in pis]
        for N in (1, 2, 3):
            a = np_weights(pis, N)
            b = np_weights(shifted, N)
            assert a == pytest.approx(b, abs=1e-12)

    def test_accepts_accuracy_object(self):
        acc = KernelAccuracies((0.9, 0.8, 0.5), folds=10, fold_seed=0)
        assert np_weights(acc.pis, 2) == pytest.approx([4 / 7, 3 / 7, 0.0], abs=1e-12)


class TestSelectSmPair:
    def test_picks_two_best(self):
        assert select_sm_pair([0.1, 0.9, 0.5]) == (1, 2)

    def test_stable_on_ties(self):
        assert select_sm_pair([0.4, 0.4, 0.4]) == (0, 1)

    def test_q_two_returns_both(self):
        assert select_sm_pair([0.2, 0.8]) == (1, 0)
        assert select_sm_pair([0.8, 0.2]) == (0, 1)

    def test_needs_two_kernels(self):
        with pytest.raises(InputError, match="at least 2"):
            select_sm_pair([0.5])


def _split(train_ids, seed):
    """A split of ``train_ids`` for CV, which reads no test id; cameras 0 and 1."""
    return SplitPlan(frozenset(train_ids), frozenset(), seed, 0, 1)


@pytest.fixture
def separable_cv_setup(separable_ds):
    ids = sorted(set(separable_ds.identities))
    width = rms_width(separable_ds, range(separable_ds.n_samples))
    return separable_ds, ids, width


class TestCvKernelAccuracies:
    def test_single_kernel_perfect_on_separable_data(self, separable_cv_setup):
        ds, ids, width = separable_cv_setup
        plan = cv_kernel_accuracies(ds, _split(ids, 3), [KernelSpec("rbf", width)], 4, 1e-7)
        assert plan.accuracies.pis == (1.0,)
        assert plan.bank_rank1.shape == (1, 4)

    def test_huge_width_kernel_is_worse(self, separable_cv_setup):
        ds, ids, width = separable_cv_setup
        bank = [KernelSpec("rbf", width), KernelSpec("rbf", width * 1e6)]
        pis = cv_kernel_accuracies(ds, _split(ids, 3), bank, 4, 1e-7).accuracies.pis
        assert pis[1] <= pis[0]

    def test_deterministic_under_seed(self, separable_cv_setup):
        ds, ids, width = separable_cv_setup
        bank = [KernelSpec("rbf", width * m) for m in (0.5, 1.0, 2.0)]
        a = cv_kernel_accuracies(ds, _split(ids, 7), bank, 4, 1e-7)
        b = cv_kernel_accuracies(ds, _split(ids, 7), bank, 4, 1e-7)
        assert a.accuracies == b.accuracies
        np.testing.assert_array_equal(a.bank_rank1, b.bank_rank1)

    def test_matches_independent_protocol_oracle(self, separable_cv_setup):
        ds, ids, width = separable_cv_setup
        spec = KernelSpec("rbf", width * 0.7)
        plan = cv_kernel_accuracies(ds, _split(ids, 5), [spec], 4, 1e-7)
        assert plan.accuracies.pis[0] == pytest.approx(
            cv_rank1_oracle(ds, ids, spec, 4, 5, 1e-7), abs=1e-12
        )

    def test_too_few_identities(self, separable_cv_setup):
        ds, ids, width = separable_cv_setup
        with pytest.raises(InputError, match="identities"):
            cv_kernel_accuracies(ds, _split(ids[:3], 0), [KernelSpec("rbf", width)], 4, 1e-7)

    def test_report_csv(self, separable_cv_setup, tmp_path):
        ds, ids, width = separable_cv_setup
        plan = cv_kernel_accuracies(
            ds, _split(ids, 3), [KernelSpec("rbf", width), KernelSpec("rbf", width * 2)], 4, 1e-7
        )
        path = tmp_path / "cv.csv"
        write_cv_csv(plan, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "kernel,fold,rank1"
        assert len(lines) == 1 + 2 * 4 + 2  # header + per-fold rows + mean rows
        assert sum(1 for l in lines if ",mean," in l) == 2

    def test_skipped_fold_keeps_its_column(self, tmp_path):
        # 12 identities in 3 folds; fold 1's identities lose their gallery samples
        full = make_synthetic(12, 2, 4, noise=0.05, view_offset=0.0, seed=2)
        ids = sorted(set(full.identities))
        held = set(cv_fold_groups(ids, 3, 0)[1])
        keep = [
            k for k in range(full.n_samples)
            if not (full.identities[k] in held and full.cameras[k] == 1)
        ]
        ds = Dataset(
            full.features[keep],
            tuple(full.identities[k] for k in keep),
            tuple(full.cameras[k] for k in keep),
        )
        bank = [KernelSpec("rbf", rms_width(ds, range(ds.n_samples)))]
        with pytest.warns(UserWarning, match="fold 1 has an empty probe or gallery set"):
            plan = cv_kernel_accuracies(ds, _split(ids, 0), bank, 3, 1e-7)
        assert np.isnan(plan.bank_rank1[0, 1])
        assert not np.isnan(plan.bank_rank1[0, [0, 2]]).any()
        write_cv_csv(plan, tmp_path / "cv.csv")
        rows = (tmp_path / "cv.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["0", "2", "mean"]


@pytest.fixture
def noisy_ds():
    # hard enough that different grid values give distinct CV scores
    return make_synthetic(14, 2, 4, noise=1.2, view_offset=6.0, seed=3)


def _noisy_bank(ds):
    width = rms_width(ds, range(ds.n_samples))
    return tuple(KernelSpec("rbf", width * m) for m in (0.15, 0.5, 1.0, 4.0))


def _forbid_fold_solves(monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("a single-value grid ran a fold solve")

    monkeypatch.setattr("kfmetric.mkl.whiten", solve)


class TestSelectTau:
    """The tau search, run through build_config("sm", ...)."""

    def _plan(self, ds):
        ids = sorted(set(ds.identities))
        return cv_kernel_accuracies(ds, _split(ids, 9), _noisy_bank(ds), 4, 1e-7)

    def test_singleton_grid(self, noisy_ds, monkeypatch):
        plan = self._plan(noisy_ds)
        _forbid_fold_solves(monkeypatch)
        assert build_config("sm", plan, tau_grid=[0.0]).tau == 0.0

    def test_deterministic(self, noisy_ds):
        grid = [0.0, 0.5, 2.0]
        t1 = build_config("sm", self._plan(noisy_ds), tau_grid=grid).tau
        t2 = build_config("sm", self._plan(noisy_ds), tau_grid=grid).tau
        assert t1 == t2

    def test_strictly_dominant_tau_wins(self, noisy_ds):
        ds = noisy_ds
        ids = sorted(set(ds.identities))
        bank = _noisy_bank(ds)
        plan = cv_kernel_accuracies(ds, _split(ids, 9), bank, 4, 1e-7)
        pair = select_sm_pair(plan.accuracies.pis)
        grid = [0.0, 0.5, 2.0]
        oracle = {
            tau: cv_rank1_oracle(
                ds, ids, MklConfig("sm", bank, pair=pair, tau=tau), 4, 9, 1e-7
            )
            for tau in grid
        }
        ranked = sorted(oracle.values(), reverse=True)
        assert ranked[0] > ranked[1], "fixture regressed: no strict winner"
        best = min(t for t in grid if oracle[t] == ranked[0])
        cfg = build_config("sm", plan, tau_grid=grid)
        assert cfg.pair == pair
        assert cfg.tau == best

    def test_bad_grid(self, noisy_ds):
        plan = self._plan(noisy_ds)
        with pytest.raises(InputError, match="empty"):
            build_config("sm", plan, tau_grid=[])
        with pytest.raises(InputError, match="non-negative"):
            build_config("sm", plan, tau_grid=[-1.0])


class TestSelectN:
    """The N search, run through build_config("np", ...)."""

    def test_singleton_grid(self, noisy_ds, monkeypatch):
        ids = sorted(set(noisy_ds.identities))
        bank = _noisy_bank(noisy_ds)
        plan = cv_kernel_accuracies(noisy_ds, _split(ids, 9), bank, 4, 1e-7)
        _forbid_fold_solves(monkeypatch)
        assert build_config("np", plan, n_grid=[2]).n_top == 2

    def test_strictly_dominant_n_wins(self):
        ds = make_synthetic(14, 2, 4, noise=0.6, view_offset=6.0, seed=1)
        ids = sorted(set(ds.identities))
        bank = _noisy_bank(ds)
        plan = cv_kernel_accuracies(ds, _split(ids, 9), bank, 4, 1e-7)
        acc = plan.accuracies
        assert len(set(acc.pis)) == len(acc.pis), "fixture regressed: tied accuracies"
        grid = [1, 2, 3]
        oracle = {}
        for N in grid:
            beta = tuple(float(b) for b in np_weights(acc.pis, N))
            cfg = MklConfig("np", bank, weights=beta, n_top=N)
            oracle[N] = cv_rank1_oracle(ds, ids, cfg, 4, 9, 1e-7)
        ranked = sorted(oracle.values(), reverse=True)
        assert ranked[0] > ranked[1], "fixture regressed: no strict winner"
        best = min(N for N in grid if oracle[N] == ranked[0])
        cfg = build_config("np", plan, n_grid=grid)
        assert cfg.n_top == best
        assert cfg.weights == tuple(np_weights(acc.pis, best))

    def test_deterministic(self, noisy_ds):
        ids = sorted(set(noisy_ds.identities))
        bank = _noisy_bank(noisy_ds)
        grid = [1, 2, 3]
        one, two = (
            build_config("np", cv_kernel_accuracies(noisy_ds, _split(ids, 9), bank, 4, 1e-7), grid)
            for _ in range(2)
        )
        assert one == two

    def test_invalid_grid(self, noisy_ds):
        ids = sorted(set(noisy_ds.identities))
        bank = _noisy_bank(noisy_ds)
        plan = cv_kernel_accuracies(noisy_ds, _split(ids, 9), bank, 4, 1e-7)
        with pytest.raises(InputError, match="must be in 1"):
            build_config("np", plan, n_grid=[0, 2])
        with pytest.raises(InputError, match="must be in 1"):
            build_config("np", plan, n_grid=[4])
        with pytest.raises(InputError, match="empty N grid"):
            build_config("np", plan, n_grid=[])

    def test_tie_at_the_boundary_warns_once(self, separable_cv_setup):
        ds, ids, width = separable_cv_setup
        bank = [KernelSpec("rbf", width * m) for m in (0.9, 1.0, 1.1)]
        plan = cv_kernel_accuracies(ds, _split(ids, 3), bank, 4, 1e-7)
        acc = plan.accuracies
        assert acc.pis[0] == acc.pis[1] == acc.pis[2], "fixture regressed: no three-way tie"
        # N = 1 keeps the top kernel at weight 1.0 whatever the tie, so only N = 2 warns
        top2 = f"accuracy tie at the top-2 boundary (pi = {acc.pis[2]})"
        for n_grid, expected in (([1], []), ([2], [top2])):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                build_config("np", plan, n_grid=n_grid)
            assert [str(w.message).split(";")[0] for w in caught] == expected, n_grid

    def test_n1_score_is_the_top_kernel_pi(self, monkeypatch):
        # 14 identities in 10 folds: 4 used folds of 2 identities, 6 skipped;
        # 3 probes per identity make fold scores sixths, so the reduction matters
        full = make_synthetic(14, 6, 4, noise=1.0, view_offset=4.0, seed=4)
        ds = Dataset(full.features, full.identities, tuple(c // 3 for c in full.cameras))
        ids = sorted(set(ds.identities))
        width = rms_width(ds, range(ds.n_samples))
        bank = tuple(KernelSpec("rbf", width * m) for m in (0.3, 1.0, 3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            plan = cv_kernel_accuracies(ds, _split(ids, 4), bank, 10, 1e-7)
        acc = plan.accuracies
        top = int(np.argmax(acc.pis))
        row = plan.bank_rank1[top]
        assert np.count_nonzero(~np.isnan(row)) == 4
        assert np.mean(row[~np.isnan(row)]) != acc.pis[top], (
            "fixture regressed: the mean of the used folds equals pi in every bit"
        )
        seen = []
        reduce = mkl._mean_rank1

        def recorded(rank1):
            seen.append(reduce(rank1))
            return seen[-1]

        monkeypatch.setattr(mkl, "_mean_rank1", recorded)
        assert build_config("np", plan, n_grid=[1, 2]).n_top in (1, 2)
        [scores] = seen  # the N search's candidate scores, N = 1 first
        assert scores[0].hex() == acc.pis[top].hex()


class TestFoldPlan:
    """One fold plan per trial: folds, fold class indexes and pool distances built once."""

    @pytest.fixture
    def trial(self, monkeypatch):
        from kfmetric import kernels, kfda

        ds = make_synthetic(80, 2, 20, noise=0.6, view_offset=30.0, seed=0)
        calls = {"_make_folds": [], "index_classes": [], "whiten": [],
                 "squared_distances": [], "grams": []}
        for module, name in ((mkl, "_make_folds"), (mkl, "index_classes"),
                             (kfda, "index_classes"), (mkl, "whiten"),
                             (kernels, "squared_distances")):
            fn = getattr(module, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name].append(_fn(*args, **kwargs))
                return calls[_name][-1]

            monkeypatch.setattr(module, name, counted)
        for module in (mkl, kfda):
            # every Gram block a caller takes is one built Gram
            def counted_grams(*args, _fn=module.grams, **kwargs):
                for K in _fn(*args, **kwargs):
                    calls["grams"].append(K.shape)
                    yield K

            monkeypatch.setattr(module, "grams", counted_grams)
        return ds, make_split(ds, 0, 0.5), calls

    @pytest.mark.parametrize("method", ["np-mfml", "sm-mfml"])
    def test_one_fold_plan_per_trial(self, trial, method):
        ds, split, calls = trial
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit_for_trial(ds, split, RunConfig(method=method))
        [(_, used)] = calls["_make_folds"]
        assert len(calls["index_classes"]) == len(used) + 1

    # distance matrices (fit, load): one for the CV pool, one for train's basis,
    # and on load one for sm's pair only
    DISTANCES = {"kfda": (1, 0), "np-mfml": (2, 0), "sm-mfml": (2, 1)}

    @pytest.mark.parametrize(
        "method, fitted, loaded", [("kfda", 1, 0), ("np-mfml", 2, 0), ("sm-mfml", 2, 2)]
    )
    def test_each_base_gram_is_built_once(self, trial, tmp_path, method, fitted, loaded):
        # CV keeps the pool's distances, no pool Gram, then train builds the chosen
        # N=2 or sm pair once; loading builds only the Grams fold reads: sm's pair
        ds, split, calls = trial
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = fit_for_trial(ds, split, RunConfig(method=method))
        assert len(calls["grams"]) == fitted
        assert len(calls["squared_distances"]) == self.DISTANCES[method][0]
        save_model(model, tmp_path / "model.json")
        calls["grams"].clear()
        calls["squared_distances"].clear()
        load_model(tmp_path / "model.json")
        assert len(calls["grams"]) == loaded
        assert len(calls["squared_distances"]) == self.DISTANCES[method][1]

    def test_n_search_reuses_the_n1_row_and_pool_grams(self, trial):
        ds, split, calls = trial
        cfg = RunConfig()
        bank = rbf_bank(ds, sorted(ds.samples_of(split.train_ids)), cfg)
        plan = cv_kernel_accuracies(ds, split, bank, cfg.folds, cfg.eps)
        [(_, used)] = calls["_make_folds"]
        assert len(calls["squared_distances"]) == 1  # the pool's, for all 20 bank kernels
        calls["whiten"].clear()
        calls["grams"].clear()
        calls["squared_distances"].clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            build_config("np", plan, n_grid=[1, 2, 3])
        # one stacked solve per used fold, of the N = 2 and N = 3 candidates only
        assert [w.G.shape[0] for w in calls["whiten"]] == [2] * len(used)
        # the search reuses the pool's distances
        assert calls["grams"] == [] and calls["squared_distances"] == []

    @pytest.mark.parametrize(
        "grams_per_stack, sizes", [(0, [1] * 20), (7, [7, 7, 6])], ids=["below-one", "seven"]
    )
    def test_stack_budget_splits_a_fold_without_changing_rank1(
        self, trial, monkeypatch, grams_per_stack, sizes
    ):
        # a budget below one fused Gram still solves one config at a time
        ds, split, calls = trial
        cfg = RunConfig()
        bank = rbf_bank(ds, sorted(ds.samples_of(split.train_ids)), cfg)
        plan = cv_kernel_accuracies(ds, split, bank, cfg.folds, cfg.eps)
        [(_, used)] = calls["_make_folds"]
        assert [w.G.shape[0] for w in calls["whiten"]] == [20] * len(used)
        [n] = {fold.idx.n_total for fold in used}
        monkeypatch.setattr(mkl, "_STACK_BYTES", grams_per_stack * 8 * n * n)
        calls["whiten"].clear()
        rank1 = plan.rank1(bank)
        assert [w.G.shape[0] for w in calls["whiten"]] == sizes * len(used)
        assert np.array_equal(rank1, plan.bank_rank1, equal_nan=True)


    def test_a_stack_holds_only_the_cuts_it_reads(self, trial, monkeypatch):
        # one config per stack: through each whitening only the cuts of the specs the
        # stack reads are alive, and the sm tau pass cuts its pair once per fold;
        # a stack's rbf cuts are the planes of one rbf_blocks stack. The unit in
        # flight keeps copies of its held-out rows and sm's map its own D, not its
        # cuts, so the last unit of a fold, in flight while the next fold's first
        # stack is whitened, keeps none of its fold's cuts alive
        ds, split, calls = trial
        cfg = RunConfig()
        bank = rbf_bank(ds, sorted(ds.samples_of(split.train_ids)), cfg)
        plan = cv_kernel_accuracies(ds, split, bank, cfg.folds, cfg.eps)
        [(_, used)] = calls["_make_folds"]
        monkeypatch.setattr(mkl, "_STACK_BYTES", 0)
        cuts, live = [], []
        blocks, whiten = mkl.rbf_blocks, mkl.whiten

        def recorded_blocks(sq, specs, in_place=False):
            out = blocks(sq, specs, in_place)
            owner = out if out.base is None else out.base  # one spec's block is built in sq
            cuts.extend([weakref.ref(owner)] * len(out))  # one entry per spec's cut
            return out

        def counted_whiten(*args):
            live.append(sum(ref() is not None for ref in cuts))
            return whiten(*args)

        monkeypatch.setattr(mkl, "rbf_blocks", recorded_blocks)
        monkeypatch.setattr(mkl, "whiten", counted_whiten)
        top = (2, 3, 4)
        np_configs = [
            MklConfig("np", bank, weights=(1 / N,) * N + (0.0,) * (len(bank) - N), n_top=N)
            for N in top
        ]
        sm_configs = [MklConfig("sm", bank, pair=(5, 9), tau=t) for t in (0.0, 0.1, 1.0)]
        for configs, held, cut_calls in (
            (bank, [1] * len(bank), len(bank)),
            (np_configs, list(top), max(top)),
            (sm_configs, [2] * len(sm_configs), 2),
        ):
            cuts.clear()
            live.clear()
            plan.rank1(configs)
            assert live == held * len(used)
            assert len(cuts) == cut_calls * len(used)

    @pytest.mark.parametrize("identities", [80, 160])
    def test_cuts_from_the_distances_equal_cuts_of_the_pool_grams(self, identities):
        # the pool keeps one distance matrix; each bank kernel's fold cut made from
        # it has the bits of the cut of that kernel's own pool Gram
        ds = make_synthetic(identities, 2, 20, noise=0.6, view_offset=30.0, seed=0)
        split = make_split(ds, 0, 0.5)
        cfg = RunConfig()
        bank = rbf_bank(ds, sorted(ds.samples_of(split.train_ids)), cfg)
        pool_idx, used = mkl._make_folds(ds, split, cfg.folds)
        X = ds.features[pool_idx]
        sq = mkl.distances(X)
        for spec, K in zip(bank, grams(bank, X)):
            for fold in used:
                [cut] = fold.cuts([spec], sq, {}).values()
                assert np.array_equal(cut, fold.cut(K)), (spec, fold.number)
                assert not cut.flags.writeable
        # a stack of several specs gives each the same bits
        fold = used[0]
        stacked = fold.cuts(bank, sq, {})
        for spec in bank:
            assert np.array_equal(stacked[spec], fold.cuts([spec], sq, {})[spec])

    def test_an_rbf_plan_holds_one_pool_matrix(self, trial):
        ds, split, _ = trial
        cfg = RunConfig()
        bank = rbf_bank(ds, sorted(ds.samples_of(split.train_ids)), cfg)
        plan = cv_kernel_accuracies(ds, split, bank, cfg.folds, cfg.eps)
        n = len(ds.samples_of(split.train_ids))
        assert plan.pool == {}  # no per-spec pool Gram
        assert plan.distances.shape == (n, n) and plan.distances.dtype == np.float64
        [big] = [v for v in vars(plan).values() if isinstance(v, np.ndarray) and v.size >= n * n]
        assert big is plan.distances

    def test_a_mixed_bank_keeps_a_pool_gram_for_each_non_rbf_kernel(self):
        ds = make_synthetic(30, 2, 6, noise=0.5, view_offset=5.0, seed=3)
        split = make_split(ds, 0, 0.5)
        bank = (KernelSpec("linear"), KernelSpec("rbf", 3.0), KernelSpec("poly2"))
        plan = cv_kernel_accuracies(ds, split, bank, 3, 1e-7)
        assert list(plan.pool) == [bank[0], bank[2]] and plan.distances is not None
        linear = cv_kernel_accuracies(ds, split, bank[:1], 3, 1e-7)
        assert plan.bank_rank1[0].tobytes() == linear.bank_rank1[0].tobytes()
        assert linear.distances is None


@pytest.fixture(scope="module")
def pipeline_plan():
    ds = make_synthetic(80, 2, 20, noise=0.6, view_offset=30.0, seed=0)
    split = make_split(ds, 0, 0.5)
    cfg = RunConfig()
    bank = rbf_bank(ds, sorted(ds.samples_of(split.train_ids)), cfg)
    plan = cv_kernel_accuracies(ds, split, bank, cfg.folds, cfg.eps)
    configs = {
        "bank": bank,
        "np": [MklConfig("np", bank, weights=(0.5, 0.5) + (0.0,) * 18, n_top=2)],
        "sm": [MklConfig("sm", bank, pair=(5, 9), tau=t) for t in (0.0, 0.1)],
    }
    return plan, configs


class TestPipeline:
    """Each unit's eigensolve overlaps the next unit's whitening, with serial results."""

    @pytest.mark.parametrize("kind", ["bank", "np", "sm"])
    @pytest.mark.parametrize("budget", [None, 0], ids=["one-stack", "one-config-per-stack"])
    def test_every_mode_gives_the_serial_rank1(self, pipeline_plan, monkeypatch, kind, budget):
        plan, configs = pipeline_plan
        if budget is not None:
            monkeypatch.setattr(mkl, "_STACK_BYTES", budget)
        steps = []

        def recorded(name, fn):
            def step(*args):
                steps.append((name, threading.current_thread() is threading.main_thread()))
                return fn(*args)

            return step

        for name in ("eigh", "syevd"):
            monkeypatch.setattr(Whitening, name, recorded(name, getattr(Whitening, name)))
        for name in ("whiten", "discriminants"):
            monkeypatch.setattr(mkl, name, recorded(name, getattr(mkl, name)))
        rank1, order = {}, {}
        for mode, (_, helped) in MODES.items():
            use_mode(monkeypatch, mode)
            # numpy's eigh on the helper, scipy's syevd on the main thread
            solve = ("eigh", False) if helped else ("syevd", True)
            before = threading.active_count()
            rank1[mode] = plan.rank1(configs[kind])
            assert threading.active_count() == before
            order[mode] = [name for name, _ in steps if name in ("whiten", "discriminants")]
            solves = [step for step in steps if step[0] in ("eigh", "syevd")]
            assert solves == [solve] * (len(order[mode]) // 2)
            steps.clear()
        assert rank1["one-cpu"].tobytes() == rank1["helper"].tobytes()
        assert rank1["blas-threads"].tobytes() == rank1["helper"].tobytes()
        if kind == "bank":
            assert rank1["helper"].tobytes() == plan.bank_rank1.tobytes()
        # every mode finishes each unit once the next is whitened
        units = len(order["helper"]) // 2
        for mode in MODES:
            assert order[mode] == (
                ["whiten"] + ["whiten", "discriminants"] * (units - 1) + ["discriminants"]
            )

    # (stage that fails, unit it fails on) pairs; units count from 0 in run order, and
    # the serial order raises the first failure of: whiten 0, eigh 0, finish 0, whiten 1 ...
    FAULTS = {
        "whiten-2": ([("whiten", 2)], "whiten 2"),
        "eigh-1": ([("eigh", 1)], "eigh 1"),
        "finish-1": ([("discriminants", 1)], "discriminants 1"),
        "eigh-1-then-whiten-2": ([("eigh", 1), ("whiten", 2)], "eigh 1"),
        "finish-1-then-whiten-2": ([("discriminants", 1), ("whiten", 2)], "discriminants 1"),
        "whiten-0": ([("whiten", 0)], "whiten 0"),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_the_first_error_is_the_serial_one(self, pipeline_plan, monkeypatch, fault, mode):
        plan, configs = pipeline_plan
        monkeypatch.setattr(mkl, "_STACK_BYTES", 0)  # 20 units a fold
        faults, message = self.FAULTS[fault]
        calls = {"whiten": 0, "eigh": 0, "discriminants": 0}
        originals = {"whiten": mkl.whiten, "discriminants": mkl.discriminants}
        eigh = Whitening.eigh

        def stage(name, run):
            def poisoned(*args):
                unit = calls[name]
                calls[name] += 1
                if (name, unit) in faults:
                    raise NumericError(f"{name} {unit}")
                return run(*args)

            return poisoned

        for name, fn in originals.items():
            monkeypatch.setattr(mkl, name, stage(name, fn))
        monkeypatch.setattr(Whitening, "eigh", stage("eigh", eigh))
        monkeypatch.setattr(Whitening, "syevd", stage("eigh", Whitening.syevd))
        use_mode(monkeypatch, mode)
        before = threading.active_count()
        with pytest.raises(NumericError, match=f"^{message}$"):
            plan.rank1(configs["bank"])
        assert threading.active_count() == before
        # every unit before the failing one was finished
        failed = int(message.split()[-1])
        assert calls["discriminants"] == failed + (message.startswith("discriminants"))


def _reference_folds(ds, train_ids, folds, seed, probe_camera, gallery_camera):
    """The fold rule built naively: per-identity dataset scans, then a map to pool positions.

    Returns the pool's dataset indices, one (number, rows, bounds, training
    dataset indices, probe and gallery dataset indices) tuple per used fold,
    and the skip messages in order.
    """
    ids = sorted(train_ids)

    def scan(group, camera=None):
        return sorted(k for i in group for k in ds.samples_of([i], camera))

    pool = scan(ids)
    pos = {k: p for p, k in enumerate(pool)}
    used, notes = [], []
    for f, held in enumerate(cv_fold_groups(ids, folds, seed)):
        if len(held) < 2:
            notes.append(f"fold {f} holds out {len(held)} identity; rank-1 is degenerate, skipping")
            continue
        if len(ids) - len(held) < 2:
            notes.append(f"fold {f} leaves fewer than 2 training classes, skipping")
            continue
        train = scan([i for i in ids if i not in held])
        probe, gallery = scan(held, probe_camera), scan(held, gallery_camera)
        if not probe or not gallery:
            notes.append(f"fold {f} has an empty probe or gallery set, skipping")
            continue
        rows = [pos[k] for k in train + probe + gallery]
        used.append((f, rows, (len(train), len(train) + len(probe)), train, probe, gallery))
    return pool, used, notes


def _without_camera(ds, dropped, camera):
    """``ds`` without the ``camera`` samples of the identities in ``dropped``."""
    keep = [k for k in range(ds.n_samples)
            if not (ds.identities[k] in dropped and ds.cameras[k] == camera)]
    return Dataset(ds.features[keep], tuple(ds.identities[k] for k in keep),
                   tuple(ds.cameras[k] for k in keep))


def _fold_cases():
    three = make_synthetic(60, 3, 20, noise=0.6, view_offset=30.0, seed=0)
    three_ids = make_split(three, 0, 0.5).train_ids
    two = make_synthetic(30, 2, 4, noise=0.3, view_offset=5.0, seed=1)
    lacking = _without_camera(two, set(sorted(set(two.identities))[::3]), 1)
    small = make_synthetic(12, 2, 4, noise=0.05, view_offset=0.0, seed=2)
    small_ids = sorted(set(small.identities))
    held = set(cv_fold_groups(small_ids, 3, 0)[1])
    uneven = make_synthetic(23, 2, 4, noise=0.3, view_offset=5.0, seed=5)
    return {
        "three-view": (three, three_ids, 10, 0, 0, 1),
        "three-view-cams-2-0": (three, three_ids, 10, 4, 2, 0),
        "lacking-camera-1": (lacking, set(lacking.identities), 5, 3, 0, 1),
        "23-in-10": (uneven, set(uneven.identities), 10, 1, 0, 1),
        "holds-out-one": (small, small_ids, 10, 0, 0, 1),
        "empty-gallery": (_without_camera(small, held, 1), small_ids, 3, 0, 0, 1),
        "all-skipped-few-training": (small, small_ids[:3], 2, 0, 0, 1),
        "all-skipped-no-gallery": (small, small_ids, 4, 0, 0, 7),
    }


FOLD_CASES = _fold_cases()


class TestMakeFolds:
    """_make_folds against the naive reference, field by field and warning by warning."""

    @pytest.mark.parametrize("case", list(FOLD_CASES))
    def test_matches_naive_reference(self, case):
        ds, train_ids, folds, seed, probe_cam, gallery_cam = FOLD_CASES[case]
        ref_pool, ref_used, notes = _reference_folds(
            ds, train_ids, folds, seed, probe_cam, gallery_cam
        )
        assert bool(ref_used) == ("skipped" not in case)

        split = SplitPlan(frozenset(train_ids), frozenset(), seed, probe_cam, gallery_cam)

        def plan():  # stands where cv_kernel_accuracies calls _make_folds
            return mkl._make_folds(ds, split, folds)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if ref_used:
                pool, used = plan()
            else:
                with pytest.raises(InputError, match="every cross-validation fold was skipped"):
                    plan()
        assert [str(w.message) for w in caught] == notes
        # stacklevel: each warning names the line that called plan, not plan's own line
        plan_body = plan.__code__.co_firstlineno + 1
        assert all(
            w.category is UserWarning and w.filename == __file__ and w.lineno > plan_body
            for w in caught
        )
        if not ref_used:
            return
        assert np.array_equal(pool, ref_pool)
        assert len(used) == len(ref_used)
        for fold, (number, rows, bounds, train, probe, gallery) in zip(used, ref_used):
            assert fold.number == number
            assert fold.rows.dtype == np.intp and np.array_equal(fold.rows, rows)
            assert fold.bounds == bounds
            want = index_classes(ds, train)
            assert (fold.idx.classes, fold.idx.counts) == (want.classes, want.counts)
            assert len(fold.idx.groups) == len(want.groups)
            for (cls, members), (want_cls, want_members) in zip(fold.idx.groups, want.groups):
                assert np.array_equal(cls, want_cls) and np.array_equal(members, want_members)
            assert np.array_equal(fold.probe_ids, ds.identity_codes[probe])
            assert np.array_equal(fold.gallery_ids, ds.identity_codes[gallery])

    def test_cases_reach_every_skip(self):
        notes = " ".join(" ".join(_reference_folds(*c)[2]) for c in FOLD_CASES.values())
        for rule in ("holds out 1 identity", "fewer than 2 training classes", "empty probe or gallery"):
            assert rule in notes


class TestMklConfig:
    def _bank(self, q=3):
        return tuple(KernelSpec("rbf", float(k + 1)) for k in range(q))

    def test_np_invariants_enforced(self):
        bank = self._bank()
        with pytest.raises(InputError, match="sum to 1"):
            MklConfig("np", bank, weights=(0.5, 0.2, 0.0), n_top=2)
        with pytest.raises(InputError, match="sum to 1, got np.float64\\(inf\\)"):
            MklConfig("np", bank, weights=(1e308, 1e308, 0.0), n_top=2)  # the sum overflows
        with pytest.raises(InputError, match="non-negative"):
            MklConfig("np", bank, weights=(-0.2, 1.2, 0.0), n_top=2)
        with pytest.raises(InputError, match="nonzero"):
            MklConfig("np", bank, weights=(1.0, 0.0, 0.0), n_top=2)

    def test_sm_invariants_enforced(self):
        bank = self._bank()
        with pytest.raises(InputError, match="distinct"):
            MklConfig("sm", bank, pair=(1, 1), tau=0.1)
        with pytest.raises(InputError, match="non-negative"):
            MklConfig("sm", bank, pair=(0, 1), tau=-0.1)
        with pytest.raises(InputError, match="variant"):
            MklConfig("mix", bank)

    def test_np_fused_gram_is_weighted_sum(self, rng):
        bank = self._bank(3)
        X = rng.normal(size=(6, 4))
        cfg = MklConfig("np", bank, weights=(0.25, 0.75, 0.0), n_top=2)
        expected = 0.25 * gram(bank[0], X) + 0.75 * gram(bank[1], X)
        np.testing.assert_allclose(
            cfg.fuse([gram(s, X) for s in cfg.specs]), expected, atol=1e-13
        )

    def test_np_combined_gram_is_psd(self, rng):
        bank = self._bank(4)
        X = rng.normal(size=(10, 3))
        cfg = MklConfig("np", bank, weights=(0.4, 0.3, 0.3, 0.0), n_top=3)
        vals = np.linalg.eigvalsh(cfg.fuse([gram(s, X) for s in cfg.specs]))
        assert vals.min() >= -1e-8 * max(vals.max(), 1e-30)

    def test_dict_round_trip(self):
        acc = KernelAccuracies((0.9, 0.7), folds=4, fold_seed=3)
        cfg = MklConfig(
            "np", self._bank(2)[:2], weights=(1.0, 0.0), n_top=1, accuracies=acc
        )
        again = config_from_dict(cfg.to_dict(), "doc")
        assert again == cfg
        sm = MklConfig("sm", self._bank(2), pair=(0, 1), tau=0.25)
        assert config_from_dict(sm.to_dict(), "doc") == sm


class TestBuildConfig:
    def test_np_with_fixed_n_has_two_active_kernels(self, noisy_ds, monkeypatch):
        ids = sorted(set(noisy_ds.identities))
        bank = _noisy_bank(noisy_ds)[:3]
        plan = cv_kernel_accuracies(noisy_ds, _split(ids, 9), bank, 4, 1e-7)
        _forbid_fold_solves(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = build_config("np", plan, n_grid=[2])
        assert cfg.variant == "np"
        assert cfg.n_top == 2
        assert sum(1 for b in cfg.weights if b != 0) == 2

    def test_sm_with_two_kernels(self, noisy_ds):
        ids = sorted(set(noisy_ds.identities))
        bank = _noisy_bank(noisy_ds)[:2]
        plan = cv_kernel_accuracies(noisy_ds, _split(ids, 9), bank, 4, 1e-7)
        cfg = build_config("sm", plan, tau_grid=(0.0, 0.5))
        assert cfg.variant == "sm"
        assert set(cfg.pair) == {0, 1}
        assert cfg.tau in (0.0, 0.5)

    def test_full_pipeline_deterministic(self, noisy_ds):
        ids = sorted(set(noisy_ds.identities))
        bank = _noisy_bank(noisy_ds)
        plan = cv_kernel_accuracies(noisy_ds, _split(ids, 9), bank, 4, 1e-7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            one = build_config("np", plan, n_grid=[1, 2, 3])
            two = build_config("np", plan, n_grid=[1, 2, 3])
        assert one == two

    def test_config_keeps_accuracies_without_the_fold_plan(self, noisy_ds):
        ids = sorted(set(noisy_ds.identities))
        plan = cv_kernel_accuracies(noisy_ds, _split(ids, 9), _noisy_bank(noisy_ds), 4, 1e-7)
        cfg = build_config("sm", plan, tau_grid=[0.0])
        assert cfg.accuracies is plan.accuracies
        # the record holds exactly what model.json stores of it
        fields = [f.name for f in dataclasses.fields(KernelAccuracies)]
        assert fields == list(cfg.to_dict()["accuracies"])

    def test_unknown_variant(self):
        acc = KernelAccuracies((0.9, 0.8), folds=4, fold_seed=9)
        with pytest.raises(InputError, match="variant"):
            build_config("other", acc)
