import hashlib
import json

import numpy as np
import pytest
import scipy.linalg

from kfmetric.data import Dataset, SplitPlan, index_classes, make_split
from kfmetric.errors import InputError, NumericError
from kfmetric.kernels import KernelSpec, gram, rms_width, squared_distances, width_grid
from kfmetric.kfda import (
    RANGE_RTOL,
    ScatterPair,
    build_scatter,
    load_model,
    save_model,
    solve_kfda,
    train,
)
from kfmetric.metric import embed_batch
from kfmetric.mkl import MklConfig
from kfmetric.synthetic import make_synthetic

from oracles import input_space_fda_projection, naive_scatter


def labeled_gram(n, labels, seed=0, width=1.5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    ds = Dataset(X, tuple(labels), tuple(k % 2 for k in range(n)))
    idx = index_classes(ds, range(n))
    return gram(KernelSpec("rbf", width), X), idx, ds


class TestBuildScatter:
    def test_single_class_p_vanishes(self):
        K, idx, _ = labeled_gram(5, ["a"] * 5)
        sc = build_scatter(K, idx)
        np.testing.assert_allclose(sc.P, 0.0, atol=1e-12)

    def test_singleton_classes_q_vanishes(self):
        K, idx, _ = labeled_gram(4, ["a", "b", "c", "d"])
        sc = build_scatter(K, idx)
        np.testing.assert_allclose(sc.Q, 0.0, atol=1e-12)

    def test_matches_triple_loop_oracle(self):
        labels = ["a", "a", "a", "b", "b", "b", "c", "c"]
        K, idx, _ = labeled_gram(8, labels, seed=2)
        sc = build_scatter(K, idx)
        P_ref, Q_ref, _, _ = naive_scatter(K, labels)
        np.testing.assert_allclose(sc.P, P_ref, atol=1e-10)
        np.testing.assert_allclose(sc.Q, Q_ref, atol=1e-10)

    def test_mixed_class_sizes_match_oracle(self):
        # shuffled classes of 1, 2, 3 and 5 samples: every contrast length, and none
        rng = np.random.default_rng(19)
        labels = list(rng.permutation(["a"] + ["b"] * 2 + ["c"] * 3 + ["d"] * 5))
        K, idx, _ = labeled_gram(11, labels, seed=19)
        sc = build_scatter(K, idx)
        P_ref, Q_ref, _, _ = naive_scatter(K, labels)
        np.testing.assert_allclose(sc.P, P_ref, atol=1e-10)
        np.testing.assert_allclose(sc.Q, Q_ref, atol=1e-10)
        assert np.array_equal(sc.Q, sc.Q.T)

    @pytest.mark.parametrize("sizes", [(1, 2) * 15, (2,) * 30], ids=["sizes-1-2", "sizes-2"])
    def test_m_matches_dense_indicator_product_bits(self, sizes):
        # with one or two samples per class the class sums scale by 1 or 0.5,
        # which is exact, so M equals the dense K @ S form bit for bit
        rng = np.random.default_rng(20)
        names = [f"c{k:02d}" for k in range(len(sizes))]
        labels = list(rng.permutation(np.repeat(names, sizes)))
        K, idx, _ = labeled_gram(len(labels), labels, seed=20)
        n, c = len(labels), idx.n_classes
        S = np.zeros((n, c))
        for classes, members in idx.groups:
            S[members, classes] = 1.0 / len(members)  # entry (members[k, j], classes[j])
        counts = np.asarray(idx.counts, dtype=np.float64)
        means = K @ S
        M = (means - (means @ (counts / n))[:, None]) * np.sqrt(counts)
        assert np.array_equal(build_scatter(K, idx).M, M)

    def test_scatters_are_psd_with_rank_bounds(self):
        labels = ["a"] * 4 + ["b"] * 3 + ["c"] * 3
        K, idx, _ = labeled_gram(10, labels, seed=3)
        sc = build_scatter(K, idx)
        for M in (sc.P, sc.Q):
            vals = np.linalg.eigvalsh(M)
            assert vals.min() >= -1e-8 * max(vals.max(), 1e-30)
        c, n = 3, 10
        p_rank = np.linalg.matrix_rank(sc.P, tol=1e-9)
        q_rank = np.linalg.matrix_rank(sc.Q, tol=1e-9)
        assert p_rank <= c - 1
        assert q_rank <= n - c

    def test_trace_identity(self):
        labels = ["a"] * 3 + ["b"] * 4 + ["c"] * 2
        K, idx, _ = labeled_gram(9, labels, seed=4)
        sc = build_scatter(K, idx)
        _, _, means, gm = naive_scatter(K, labels)
        expected = sum(
            labels.count(c) * float(np.sum((means[c] - gm) ** 2)) for c in ("a", "b", "c")
        )
        assert np.trace(sc.P) == pytest.approx(expected, rel=1e-8)

    def test_shape_mismatch_rejected(self):
        K, idx, _ = labeled_gram(6, ["a", "a", "b", "b", "c", "c"])
        with pytest.raises(InputError, match="does not match"):
            build_scatter(K[:4, :4], idx)

    # warnings are errors: the NumericError is the one report, with no numpy warning first
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fault", ["nan", "inf"])
    def test_non_finite_gram_rejected(self, fault):
        K, idx, _ = labeled_gram(6, ["a", "a", "b", "b", "c", "c"])
        K = np.array(K)
        K[1, 4] = K[4, 1] = float(fault)
        with pytest.raises(NumericError, match="scatter"):
            build_scatter(K, idx)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_scatter_rejected(self):
        # linear Gram entries near 1e200 are finite; Q's squared entries are not
        X = np.random.default_rng(5).normal(size=(6, 3)) * 1e100
        ds = Dataset(X, ("a", "a", "b", "b", "c", "c"), (0, 1) * 3)
        K = gram(KernelSpec("linear"), X)
        assert np.isfinite(K).all()
        with pytest.raises(NumericError, match="scatter"):
            build_scatter(K, index_classes(ds, range(6)))
        for eps in (0.0, 1e-7):
            with pytest.raises(NumericError, match="scatter"):
                train(ds, _full_train_plan(ds), KernelSpec("linear"), eps=eps)


class TestSolveKfda:
    def test_two_class_leading_direction_beats_random(self):
        labels = ["a"] * 6 + ["b"] * 6
        K, idx, _ = labeled_gram(12, labels, seed=5)
        sc = build_scatter(K, idx)
        eps = 1e-7
        model = solve_kfda(sc, p=1, eps=eps)
        alpha = model.A[:, 0]
        B = sc.Q + eps * np.eye(12)

        def quotient(v):
            return float(v @ sc.P @ v) / float(v @ B @ v)

        best = quotient(alpha)
        rng = np.random.default_rng(6)
        for _ in range(1000):
            v = rng.normal(size=12)
            v /= np.linalg.norm(v)
            assert best >= quotient(v)

    def test_p_out_of_range(self):
        labels = ["a"] * 3 + ["b"] * 3
        K, idx, _ = labeled_gram(6, labels)
        sc = build_scatter(K, idx)
        with pytest.raises(InputError, match="p must be"):
            solve_kfda(sc, p=0)
        with pytest.raises(InputError, match="p must be"):
            solve_kfda(sc, p=2)  # c-1 = 1

    def test_gram_scaling_invariance_eps_zero(self):
        labels = ["a"] * 4 + ["b"] * 4 + ["c"] * 4
        K, idx, _ = labeled_gram(12, labels, seed=7)
        gamma = 3.7
        m1 = solve_kfda(build_scatter(K, idx), p=2, eps=0.0)
        m2 = solve_kfda(build_scatter(gamma * K, idx), p=2, eps=0.0)
        np.testing.assert_allclose(m1.A, m2.A, atol=1e-9)
        np.testing.assert_allclose(m1.eigvals, m2.eigvals, rtol=1e-9)

    def test_generalized_eigen_residual(self):
        labels = ["a"] * 5 + ["b"] * 5 + ["c"] * 5
        K, idx, _ = labeled_gram(15, labels, seed=8)
        sc = build_scatter(K, idx)
        eps = 1e-7
        model = solve_kfda(sc, p=2, eps=eps)
        B = sc.Q + eps * np.eye(15)
        bound = 1e-8 * np.linalg.norm(sc.P, 2)
        for k in range(2):
            resid = sc.P @ model.A[:, k] - model.eigvals[k] * (B @ model.A[:, k])
            assert np.linalg.norm(resid) <= bound

    def test_eigvals_descending_nonnegative(self):
        labels = ["a"] * 4 + ["b"] * 4 + ["c"] * 4 + ["d"] * 4
        K, idx, _ = labeled_gram(16, labels, seed=9)
        model = solve_kfda(build_scatter(K, idx), p=3)
        assert np.all(np.diff(model.eigvals) <= 0)
        assert np.all(model.eigvals >= 0)

    def test_rank_bound_on_full_spectrum(self):
        labels = ["a"] * 5 + ["b"] * 5 + ["c"] * 5
        K, idx, _ = labeled_gram(15, labels, seed=10)
        sc = build_scatter(K, idx)
        vals = scipy.linalg.eigh(
            sc.P, sc.Q + 1e-7 * np.eye(15), eigvals_only=True
        )[::-1]
        c = 3
        assert np.sum(vals > 1e-8 * vals[0]) <= c - 1

    def test_columns_unit_norm_with_positive_peak(self):
        labels = ["a"] * 4 + ["b"] * 4 + ["c"] * 4
        K, idx, _ = labeled_gram(12, labels, seed=11)
        model = solve_kfda(build_scatter(K, idx), p=2)
        for k in range(2):
            col = model.A[:, k]
            assert np.linalg.norm(col) == pytest.approx(1.0, abs=1e-12)
            assert col[int(np.argmax(np.abs(col)))] > 0


def _dense_pencil(sc, p, eps):
    """Top-p eigenpairs from a dense n x n generalized solve of (P, Q + eps I).

    With eps == 0 the pencil is restricted to the numerical range of Q.
    """
    if eps > 0:
        vals, vecs = scipy.linalg.eigh(sc.P, sc.Q + eps * np.eye(sc.Q.shape[0]))
    else:
        s, U = scipy.linalg.eigh(sc.Q)
        keep = s > RANGE_RTOL * s[-1]
        W = U[:, keep] / np.sqrt(s[keep])
        vals, V = scipy.linalg.eigh(W.T @ sc.P @ W)
        vecs = W @ V
    return vals[::-1][:p], vecs[:, ::-1][:, :p]


class TestLowRankMatchesDense:
    @pytest.mark.parametrize(
        "sizes, kind, eps",
        [
            ((3, 5, 2, 7, 4), "rbf", 1e-7),  # unequal class sizes
            ((1, 1, 4, 3, 1, 6), "rbf", 1e-7),  # singleton classes
            ((1,) * 5 + (3,) * 5, "rbf", 1e-7),
            ((6, 9), "rbf", 1e-7),  # c = 2
            ((1, 2), "rbf", 1e-3),  # c = 2 with a singleton, larger eps
            ((2,) * 20, "rbf", 1e-7),
            ((3, 4, 5, 2, 3, 4, 3, 2), "linear", 0.0),  # range-restricted path
        ],
    )
    def test_matches_dense_generalized_eigh(self, sizes, kind, eps):
        rng = np.random.default_rng(sum(sizes) * len(sizes))
        n, c, d = sum(sizes), len(sizes), 5
        cls = rng.permutation(np.repeat(np.arange(c), sizes))
        X = rng.normal(size=(n, d)) + rng.normal(size=(c, d))[cls]
        ds = Dataset(X, tuple(f"c{k:02d}" for k in cls), tuple(k % 2 for k in range(n)))
        spec = KernelSpec("linear") if kind == "linear" else KernelSpec("rbf", 2.0)
        sc = build_scatter(gram(spec, X), index_classes(ds, range(n)))
        p = min(c - 1, d) if kind == "linear" else c - 1
        model = solve_kfda(sc, p, eps)
        vals, vecs = _dense_pencil(sc, p, eps)

        np.testing.assert_allclose(model.eigvals, vals, rtol=1e-6)
        assert scipy.linalg.subspace_angles(model.A, vecs).max() <= 1e-5
        B = sc.Q + eps * np.eye(n)
        bound = 1e-8 * np.linalg.norm(sc.P, 2)
        for k in range(p):
            resid = sc.P @ model.A[:, k] - model.eigvals[k] * (B @ model.A[:, k])
            assert np.linalg.norm(resid) <= bound


def _scipy_wrapper_solve(sc, p, eps):
    """The eps > 0 solve through scipy.linalg's cholesky, solve_triangular and eigh (syevd)."""
    n = sc.Q.shape[0]
    L = scipy.linalg.cholesky(
        sc.Q + eps * np.eye(n), lower=True, overwrite_a=True, check_finite=False
    )
    Y = scipy.linalg.solve_triangular(L, sc.M, lower=True, check_finite=False)
    vals, V = scipy.linalg.eigh(Y.T @ Y, check_finite=False, driver="evd")
    Z = Y @ V[:, ::-1][:, :p]
    A = scipy.linalg.solve_triangular(L, Z, lower=True, trans="T", check_finite=False)
    A /= np.linalg.norm(A, axis=0)
    peak = A[np.argmax(np.abs(A), axis=0), np.arange(p)]
    A[:, peak < 0] *= -1.0
    return A, np.maximum(vals[::-1][:p], 0.0)


class TestDirectLapack:
    @pytest.mark.parametrize("n_ids", [36, 300])  # n = 72, c = 36 (a CV fold) and n = 600
    def test_bits_match_the_scipy_wrappers(self, n_ids):
        ds = make_synthetic(n_ids, 2, 20, noise=0.6, view_offset=30.0, seed=n_ids)
        subset = range(ds.n_samples)
        K = gram(KernelSpec("rbf", rms_width(ds, subset)), ds.features)
        sc = build_scatter(K, index_classes(ds, subset))
        for eps in (1e-7, 1e-3):
            model = solve_kfda(sc, n_ids - 1, eps)
            A, vals = _scipy_wrapper_solve(sc, n_ids - 1, eps)
            assert np.array_equal(model.A, A)
            assert np.array_equal(model.eigvals, vals)

    def test_indefinite_within_scatter_raises(self):
        sc = ScatterPair(Q=-np.eye(4), M=np.ones((4, 3)))
        with pytest.raises(NumericError, match="generalized eigensolver failed"):
            solve_kfda(sc, p=2)

    def test_overflowing_coefficient_norm_raises(self):
        # Q = 0 and eps = 1e-300 scale the entries of A to about 1e200: finite,
        # but their squared norm overflows, and dividing by it would zero the columns
        M = np.random.default_rng(6).normal(size=(6, 3)) * 1e-100
        sc = ScatterPair(Q=np.zeros((6, 6)), M=M - M.mean(axis=1, keepdims=True))
        with pytest.raises(NumericError, match="zero or non-finite eigenvector"):
            solve_kfda(sc, p=2, eps=1e-300)


def _two_view_dataset(n_ids, d, seed, spread=4.0, noise=0.5):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_ids, d)) * spread
    rows, ids, cams = [], [], []
    for i in range(n_ids):
        for cam in (0, 1):
            rows.append(centers[i] + rng.normal(size=d) * noise)
            ids.append(f"id{i:02d}")
            cams.append(cam)
    return Dataset(np.array(rows), tuple(ids), tuple(cams))


def _full_train_plan(ds):
    return SplitPlan(
        train_ids=frozenset(ds.identities),
        test_ids=frozenset(),
        trial_seed=0,
        probe_camera=0,
        gallery_camera=1,
    )


class TestTrain:
    def test_separated_two_class_model(self):
        ds = _two_view_dataset(2, 3, seed=12, spread=10.0, noise=0.1)
        plan = _full_train_plan(ds)
        model = train(ds, plan, KernelSpec("rbf", 5.0))
        assert model.p == 1
        assert model.eigvals[0] > 0
        assert model.train_basis.shape == (4, 3)

    def test_training_is_deterministic(self):
        ds = _two_view_dataset(5, 4, seed=13)
        plan = _full_train_plan(ds)
        spec = KernelSpec("rbf", 3.0)
        m1 = train(ds, plan, spec)
        m2 = train(ds, plan, spec)
        assert m1.A.tobytes() == m2.A.tobytes()
        assert m1.eigvals.tobytes() == m2.eigvals.tobytes()

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "neg"])
    def test_bad_regularizer_rejected(self, eps):
        # NaN fails both eps < 0 and eps > 0; it must not fall through to the eps = 0 solve
        ds = make_synthetic(12, noise=0.3, seed=1)
        spec = KernelSpec("rbf", rms_width(ds, range(ds.n_samples)))
        with pytest.raises(InputError, match="regularizer must be non-negative and finite"):
            train(ds, _full_train_plan(ds), spec, eps=eps)

    def test_linear_kernel_matches_input_space_fda(self):
        # n=16 > d=5; rank(Q) = d on the eps=0 path, so p = d discriminants
        ds = _two_view_dataset(8, 5, seed=14, spread=3.0, noise=1.0)
        plan = _full_train_plan(ds)
        p = 5
        model = train(ds, plan, KernelSpec("linear"), eps=0.0, p=p)

        train_idx = sorted(ds.samples_of(plan.train_ids))
        X = ds.features[train_idx]
        labels = [ds.identities[i] for i in train_idx]
        W, _ = input_space_fda_projection(X, labels, p)

        rng = np.random.default_rng(15)
        Y = rng.normal(size=(12, 5)) * 2.0
        d_model = squared_distances(embed_batch(model, Y), embed_batch(model, Y))
        ref = Y @ W
        d_ref = squared_distances(ref, ref)
        mask = ~np.eye(12, dtype=bool)
        rel = np.abs(d_model[mask] - d_ref[mask]) / np.abs(d_ref[mask])
        assert rel.max() < 1e-6

    def test_single_class_training_rejected(self):
        ds = _two_view_dataset(2, 3, seed=16)
        plan = SplitPlan(
            train_ids=frozenset({"id00"}),
            test_ids=frozenset({"id01"}),
            trial_seed=0,
            probe_camera=0,
            gallery_camera=1,
        )
        with pytest.raises(InputError, match="2 classes"):
            train(ds, plan, KernelSpec("rbf", 1.0))


class TestPersistence:
    def test_round_trip_bit_for_bit(self, tmp_path):
        ds = _two_view_dataset(4, 3, seed=17)
        model = train(ds, _full_train_plan(ds), KernelSpec("rbf", 2.5))
        path = tmp_path / "model.json"
        save_model(model, path, meta={"trial_seed": 0})
        loaded, meta = load_model(path)
        assert loaded.A.tobytes() == model.A.tobytes()
        assert loaded.eigvals.tobytes() == model.eigvals.tobytes()
        assert loaded.train_basis.tobytes() == model.train_basis.tobytes()
        assert loaded.kernel_config == model.kernel_config
        assert loaded.regularizer == model.regularizer
        assert meta == {"trial_seed": 0}

    def test_file_bytes_are_pinned(self, tmp_path):
        """sha256 of a small sm-mfml model's file: the format, byte for byte."""
        ds = make_synthetic(12, 2, 6, noise=0.3, view_offset=5.0, seed=2)
        plan = make_split(ds, 0, 0.5)
        widths = width_grid(rms_width(ds, sorted(ds.samples_of(plan.train_ids))), 4)
        kernel = MklConfig(
            variant="sm", bank_specs=tuple(KernelSpec("rbf", w) for w in widths),
            pair=(1, 2), tau=0.1,
        )
        path = tmp_path / "model.json"
        save_model(train(ds, plan, kernel), path, meta={"trial_seed": plan.trial_seed, "note": "é"})
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "fc465d230ccbb79714b350b5a8b46bad481ddd245123f997c8b7a10b7e26387e"

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"format\": \"something-else\"}")
        with pytest.raises(InputError, match="not a"):
            load_model(path)
        missing = tmp_path / "missing.json"
        with pytest.raises(InputError, match="missing"):
            load_model(missing)


class TestModelValidation:
    def test_bad_eigval_order_rejected(self, tmp_path):
        ds = _two_view_dataset(4, 3, seed=17)
        model = train(ds, _full_train_plan(ds), KernelSpec("rbf", 2.5))
        assert model.p == 3
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["eigvals"] = [1.0, 2.0, 0.5]
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="'eigvals' must be non-increasing"):
            load_model(path)

    def test_model_arrays_are_read_only(self, tmp_path):
        ds = _two_view_dataset(4, 3, seed=17)
        model = train(ds, _full_train_plan(ds), KernelSpec("rbf", 2.5))
        path = tmp_path / "model.json"
        save_model(model, path)
        for m in (model, load_model(path)[0]):
            assert not m.A.flags.writeable and not m.eigvals.flags.writeable


def _stacked_grams(sizes, C, seed=0):
    """C rbf Grams of several widths over one sample set whose classes have the given sizes."""
    rng = np.random.default_rng(seed)
    labels = [f"c{k}" for k, s in enumerate(sizes) for _ in range(s)]
    labels = [labels[i] for i in rng.permutation(len(labels))]  # members interleave
    n = len(labels)
    X = rng.normal(size=(n, 4))
    ds = Dataset(X, tuple(labels), tuple(k % 2 for k in range(n)))
    width = rms_width(ds, range(n))
    K = np.stack([gram(KernelSpec("rbf", width * m), X) for m in np.geomspace(0.3, 3.0, C)])
    return K, index_classes(ds, range(n))


CLASS_SIZES = {
    "two-view": [2] * 12,
    "three-view": [3] * 8,
    "mixed": [1, 2, 3, 2, 1, 3, 3, 2, 1, 2],
}


class TestStacks:
    """A stack of Grams gives, matrix for matrix, the bits of 2-D calls."""

    @pytest.mark.parametrize("C", [1, 3, 20])
    @pytest.mark.parametrize("design", sorted(CLASS_SIZES))
    @pytest.mark.parametrize("eps", [1e-7, 0.0])
    def test_scatter_and_solve_match_per_matrix_calls(self, C, design, eps):
        K, idx = _stacked_grams(CLASS_SIZES[design], C)
        p = idx.n_classes - 1
        sc = build_scatter(K, idx)
        sol = solve_kfda(sc, p, eps)
        assert sc.Q.shape == (C,) + K.shape[1:] and sc.M.shape == (C, len(K[0]), idx.n_classes)
        assert sol.A.shape == (C, len(K[0]), p) and sol.eigvals.shape == (C, p)
        for c in range(C):
            one = build_scatter(K[c], idx)
            assert np.array_equal(sc.Q[c], one.Q) and np.array_equal(sc.M[c], one.M)
            A, vals = solve_kfda(one, p, eps)
            assert np.array_equal(sol.A[c], A) and np.array_equal(sol.eigvals[c], vals)

    @pytest.mark.parametrize("eps", [1e-7, 0.0])
    def test_two_stack_axes_match_per_matrix_calls(self, eps):
        K, idx = _stacked_grams(CLASS_SIZES["two-view"], 6)
        p = idx.n_classes - 1
        sol = solve_kfda(build_scatter(K.reshape((2, 3) + K.shape[1:]), idx), p, eps)
        assert sol.A.shape == (2, 3, len(K[0]), p) and sol.eigvals.shape == (2, 3, p)
        for c in range(6):
            A, vals = solve_kfda(build_scatter(K[c], idx), p, eps)
            cell = divmod(c, 3)
            assert np.array_equal(sol.A[cell], A) and np.array_equal(sol.eigvals[cell], vals)

    @pytest.mark.parametrize("fault", ["nan", "inf"])
    def test_one_non_finite_gram_fails_the_stack(self, fault):
        K, idx = _stacked_grams(CLASS_SIZES["two-view"], 3)
        K[1, 2, 5] = K[1, 5, 2] = float(fault)
        with pytest.raises(NumericError, match="^scatter matrices Q and M contain non-finite"):
            build_scatter(K, idx)

    def test_one_indefinite_pencil_fails_the_stack(self):
        K, idx = _stacked_grams(CLASS_SIZES["two-view"], 3)
        sc = build_scatter(K, idx)
        Q = np.array(sc.Q)
        Q[1] = -np.eye(len(Q[1]))
        with pytest.raises(NumericError) as one:
            solve_kfda(ScatterPair(Q=Q[1], M=sc.M[1]), 2)
        with pytest.raises(NumericError) as stacked:
            solve_kfda(ScatterPair(Q=Q, M=sc.M), 2)
        assert str(stacked.value) == str(one.value)
        assert "1-th leading minor of the array is not positive definite" in str(one.value)
