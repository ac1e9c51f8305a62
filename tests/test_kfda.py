import contextlib
import ctypes
import hashlib
import json
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from kfmetric.config import RunConfig
from kfmetric.data import Dataset, SplitPlan, index_classes, make_split
from kfmetric.errors import InputError, NumericError
from kfmetric.evaluation import rbf_bank
from kfmetric.kernels import KernelSpec, gram, rms_width, squared_distances, width_grid
from kfmetric import kfda, threads
from kfmetric.kfda import (
    RANGE_RTOL,
    ScatterPair,
    build_scatter,
    discriminants,
    load_model,
    save_model,
    solve_kfda,
    train,
    whiten,
)
from kfmetric.metric import embed_batch
from kfmetric.mkl import MklConfig, cv_kernel_accuracies
from kfmetric.synthetic import make_synthetic

from oracles import input_space_fda_projection, naive_scatter
from test_threads import MODES, _helpers, use_mode


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


def _watched_helpers(monkeypatch):
    """Record, per helper asked of :func:`threads.helper`, its name and whether one started."""
    asked, helper = [], threads.helper

    @contextlib.contextmanager
    def watched(name, macs=None):
        with helper(name, macs) as start:
            asked.append((name, start is not None))
            yield start

    monkeypatch.setattr(threads, "helper", watched)
    return asked


def _recorded_trtrs(monkeypatch, fail=None):
    """Record each dtrtrs call's column count and whether it ran on the main thread.

    ``fail`` is an optional (on_main_thread, info): each call on that thread
    then reports that info after solving.
    """
    calls, dtrtrs = [], kfda._DTRTRS

    def recorded(*args):  # the addresses of uplo, trans, diag, n, nrhs, a, lda, b, ldb, info
        main = threading.current_thread() is threading.main_thread()
        calls.append((ctypes.c_int.from_address(args[4]).value, main))
        dtrtrs(*args)
        if fail is not None and fail[0] == main:
            ctypes.c_int.from_address(args[9]).value = fail[1]

    monkeypatch.setattr(kfda, "_DTRTRS", recorded)
    return calls


def _pencil(n_ids):
    """The scatter pair of an rbf Gram at the rms width: n = 2 n_ids, c = n_ids."""
    ds = make_synthetic(n_ids, 2, 20, noise=0.6, view_offset=30.0, seed=n_ids)
    subset = range(ds.n_samples)
    K = gram(KernelSpec("rbf", rms_width(ds, subset)), ds.features)
    return build_scatter(K, index_classes(ds, subset))


class TestDirectLapack:
    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("n_ids", [36, 300])  # n = 72, c = 36 (a CV fold) and n = 600
    def test_bits_match_the_scipy_wrappers(self, monkeypatch, n_ids, mode):
        sc = _pencil(n_ids)
        use_mode(monkeypatch, mode)
        asked, calls = _watched_helpers(monkeypatch), _recorded_trtrs(monkeypatch)
        for eps in (1e-7, 1e-3):
            model = solve_kfda(sc, n_ids - 1, eps)
            A, vals = _scipy_wrapper_solve(sc, n_ids - 1, eps)
            assert np.array_equal(model.A, A)
            assert np.array_equal(model.eigvals, vals)
        # every solve asks; only the 600-sample ones reach the size rule, and only a helper
        # splits them
        split = n_ids == 300 and MODES[mode][1]
        assert asked == [("kfmetric-trsm", split)] * 2
        # L^-1 M on c columns, then L^-T on c - 1; the helper takes the left halves
        def parts(k):
            return [(k // 2, False), (k - k // 2, True)] if split else [(k, True)]

        want = parts(n_ids) + parts(n_ids - 1)
        assert sorted(calls) == sorted(want * 2)

    def test_indefinite_within_scatter_raises(self):
        sc = ScatterPair(Q=-np.eye(4), M=np.ones((4, 3)))
        with pytest.raises(NumericError, match="generalized eigensolver failed"):
            solve_kfda(sc, p=2)

    @pytest.mark.parametrize("n_ids", [36, 72, 300])
    def test_numpy_eigh_gives_the_bits_of_syevd_in_place(self, n_ids):
        # c = n_ids: a protocol fold's c, twice that, and a 600-sample training pencil
        ds = make_synthetic(n_ids, 2, 20, noise=0.6, view_offset=30.0, seed=n_ids)
        subset = range(ds.n_samples)
        width = rms_width(ds, subset)
        K = np.stack([gram(KernelSpec("rbf", width * m), ds.features) for m in (0.5, 1.0, 4.0)])
        idx = index_classes(ds, subset)
        threaded, direct = (whiten(build_scatter(K, idx), n_ids - 1) for _ in range(2))
        vals = threaded.eigh()
        assert np.array_equal(vals, kfda._eigh(direct.G))
        assert np.array_equal(threaded.G, direct.G)  # the eigenvectors
        assert threaded.G.strides == direct.G.strides

    @pytest.mark.parametrize("eps", [1e-7, 0.0])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_solve_is_whiten_then_discriminants(self, eps, p):
        K, idx = _stacked_grams(CLASS_SIZES["two-view"], 3)
        w = whiten(build_scatter(K, idx), p, eps)
        A, vals = discriminants(w, w.eigh())
        want = solve_kfda(build_scatter(K, idx), p, eps)
        assert np.array_equal(A, want.A) and np.array_equal(vals, want.eigvals)
        assert A.strides == want.A.strides

    def test_a_failed_numpy_eigh_is_a_failed_solve(self, monkeypatch):
        K, idx = _stacked_grams(CLASS_SIZES["two-view"], 2)
        w = whiten(build_scatter(K, idx), 2)

        def fails(G):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fails)
        with pytest.raises(NumericError, match="^generalized eigensolver failed: Eigenvalues did"):
            w.eigh()

    def test_overflowing_coefficient_norm_raises(self):
        # Q = 0 and eps = 1e-300 scale the entries of A to about 1e200: finite,
        # but their squared norm overflows, and dividing by it would zero the columns
        M = np.random.default_rng(6).normal(size=(6, 3)) * 1e-100
        sc = ScatterPair(Q=np.zeros((6, 6)), M=M - M.mean(axis=1, keepdims=True))
        with pytest.raises(NumericError, match="zero or non-finite eigenvector"):
            solve_kfda(sc, p=2, eps=1e-300)


def _triangular_system(n, c, seed=0):
    """A column-major potrf factor L of a well-conditioned n x n matrix, and an n x c B."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n))
    L = scipy.linalg.cholesky(X @ X.T + n * np.eye(n), lower=True)
    return np.asfortranarray(L), np.asfortranarray(rng.normal(size=(n, c)))


class TestSplitSolve:
    """A large solve's triangular solves split by columns between a helper and this thread."""

    @pytest.mark.parametrize("trans", [0, 1])
    @pytest.mark.parametrize("c", [1, 3, 4, 301])  # 301 splits as 150 + 151
    def test_halves_give_the_bits_of_one_call(self, monkeypatch, c, trans):
        L, B = _triangular_system(320, c)
        want = scipy.linalg.solve_triangular(L, B, lower=True, trans=trans, check_finite=False)
        one = B.copy(order="F")
        kfda._trsm(L, one, trans)(0)
        use_mode(monkeypatch, "helper")
        calls = _recorded_trtrs(monkeypatch)
        with threads.helper("kfmetric-trsm") as start:
            split = B.copy(order="F")
            kfda._trsm(L, split, trans, start)(0)
        assert np.array_equal(one, want) and np.array_equal(split, want)
        # each half has at least 2 columns, so fewer than 4 run in one call here
        assert sorted(calls) == ([(c, True)] if c < 4 else [(c // 2, False), (c - c // 2, True)])

    @pytest.mark.parametrize("p", [1, 3, 4, 59])
    def test_a_split_solve_matches_the_wrappers_at_every_p(self, monkeypatch, p):
        # L^-T on p columns: at p = 1 one column, whose stride is not its leading
        # dimension; at 3 one call; at 4 and 59 halves of 2 + 2 and 29 + 30
        sc = _pencil(60)
        monkeypatch.setattr(threads, "HELPER_MACS", 0)  # every solve may split
        use_mode(monkeypatch, "helper")
        asked = _watched_helpers(monkeypatch)
        model = solve_kfda(sc, p)
        A, vals = _scipy_wrapper_solve(sc, p, kfda.DEFAULT_EPS)
        assert asked == [("kfmetric-trsm", True)]
        assert np.array_equal(model.A, A) and np.array_equal(model.eigvals, vals)

    def test_repeated_split_solves_give_the_same_bits(self, monkeypatch):
        sc = _pencil(100)
        serial = solve_kfda(sc, 99)
        monkeypatch.setattr(threads, "HELPER_MACS", 0)
        use_mode(monkeypatch, "helper")
        for _ in range(20):
            model = solve_kfda(sc, 99)
            assert model.A.tobytes() == serial.A.tobytes()
            assert model.eigvals.tobytes() == serial.eigvals.tobytes()
            assert _helpers("kfmetric-trsm") == []

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_a_singular_factor_raises_the_serial_error(self, monkeypatch, mode):
        L, B = _triangular_system(40, 9)
        L[5, 5] = 0.0  # trtrs reports info 6 for the whole call and for either half
        use_mode(monkeypatch, mode)
        with threads.helper("kfmetric-trsm") as start:
            with pytest.raises(NumericError, match="resolution failed at diagonal 5$"):
                kfda._trsm(L, B, 0, start)(0)
        assert _helpers("kfmetric-trsm") == []

    @pytest.mark.parametrize("failing", ["helper", "main"])
    @pytest.mark.parametrize("info, message", [
        (7, "singular matrix: resolution failed at diagonal 6$"),
        (-9, "trtrs got a bad argument 9$"),
    ])
    def test_a_failed_half_raises_what_one_call_raises(self, monkeypatch, failing, info, message):
        sc = _pencil(60)
        monkeypatch.setattr(threads, "HELPER_MACS", 0)
        fail = _recorded_trtrs(monkeypatch, fail=(True, info))  # the serial call fails
        use_mode(monkeypatch, "one-cpu")
        with pytest.raises(NumericError, match=message):
            solve_kfda(sc, 59)
        monkeypatch.undo()
        monkeypatch.setattr(threads, "HELPER_MACS", 0)
        calls = _recorded_trtrs(monkeypatch, fail=(failing == "main", info))
        use_mode(monkeypatch, "helper")
        with pytest.raises(NumericError, match=message):
            solve_kfda(sc, 59)
        # L^-1 M failed, on both threads; no thread outlives the failed solve
        assert sorted(calls) == [(30, False), (30, True)] and fail == [(60, True)]
        assert _helpers("kfmetric-trsm") == []

    def test_cross_validation_splits_no_solve(self, monkeypatch):
        ds = make_synthetic(40, 2, 20, noise=0.6, view_offset=30.0, seed=0)
        split = make_split(ds, 0, 0.5)
        cfg = RunConfig()
        bank = rbf_bank(ds, sorted(ds.samples_of(split.train_ids)), cfg)
        monkeypatch.setattr(threads, "HELPER_MACS", 0)
        use_mode(monkeypatch, "helper")
        asked, calls = _watched_helpers(monkeypatch), _recorded_trtrs(monkeypatch)
        cv_kernel_accuracies(ds, split, bank, cfg.folds, cfg.eps)
        assert {name for name, _ in asked} == {"kfmetric-eigh"}
        assert calls and all(main for _, main in calls)
        assert _helpers("kfmetric-trsm") == []

    def test_the_binding_checks_its_c_signature(self):
        with pytest.raises(ImportError, match=r"expected 'void \(long \*\)'"):
            kfda._lapack_function("dtrtrs", "void (long *)")

    @pytest.mark.parametrize("layout", ["row-major", "float32", "short-leading-dimension"])
    def test_a_bad_layout_is_refused_before_the_call(self, layout):
        L, B = _triangular_system(8, 4)
        B = {
            "row-major": np.ascontiguousarray(B),
            "float32": B.astype(np.float32, order="F"),
            # 8 rows whose columns start 4 entries apart
            "short-leading-dimension": np.lib.stride_tricks.as_strided(B, (8, 4), (8, 32)),
        }[layout]
        with pytest.raises(ValueError, match="trtrs needs"):
            kfda._Trtrs(L[None], B[None], 0, 0, 4)


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


    def test_small_p_model_holds_only_its_columns(self):
        # A is solved in the buffer of the c whitened class means; at p < c - 1
        # the model must not keep the other columns alive
        ds = _two_view_dataset(6, 3, seed=17)
        model = train(ds, _full_train_plan(ds), KernelSpec("rbf", 3.0), p=2)
        owner = model.A if model.A.base is None else model.A.base
        assert model.A.shape == (12, 2) and owner.nbytes == model.A.nbytes

    @pytest.mark.parametrize(
        "kind, bound", [("kernel", 3.0), ("np", 4.5), ("np5", 4.5), ("sm", 5.5)]
    )
    def test_peak_memory_in_gram_units(self, kind, bound):
        # the fit frees each n x n buffer once read: the traced peak of train at
        # n = 600, in units of one n x n float64 matrix, was 5.3 (kernel), 7.3 (np)
        # and 6.3 (sm) while every stage's buffers lived to the end of the fit, and
        # np at 5.05 (N = 3) and 7.05 (N = 5) while it built all N Grams before
        # summing them; summed as they are built, np peaks at 4.17 for any N
        ds = make_synthetic(300, noise=0.6, seed=0)
        width = rms_width(ds, range(ds.n_samples))
        banks = {q: tuple(KernelSpec("rbf", w) for w in width_grid(width, q)) for q in (4, 6)}
        kernel = {
            "kernel": KernelSpec("rbf", width),
            "np": MklConfig("np", banks[4], weights=(0.5, 0.3, 0.2, 0.0), n_top=3),
            "np5": MklConfig("np", banks[6], weights=(0.3, 0.25, 0.2, 0.15, 0.1, 0.0), n_top=5),
            "sm": MklConfig("sm", banks[4], pair=(1, 2), tau=0.1),
        }[kind]
        plan = _full_train_plan(ds)
        tracemalloc.start()
        try:
            train(ds, plan, kernel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * 8 * ds.n_samples**2


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
