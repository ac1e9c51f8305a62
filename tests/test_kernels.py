import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfmetric import kernels
from kfmetric.data import Dataset
from kfmetric.errors import InputError, NumericError
from kfmetric.kernels import (
    KernelSpec,
    gram,
    grams,
    rms_width,
    squared_distances,
    width_grid,
)
from kfmetric.mkl import MklConfig

finite_vec = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=6
)


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """One kernel entry k(x, y), straight from the definition: the scalar reference for Grams."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise InputError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if spec.kind == "rbf":
        diff = x - y
        return float(np.exp(-(diff @ diff) / (2.0 * spec.width**2)))
    if spec.kind == "linear":
        return float(x @ y)
    return float((x @ y + 1.0) ** 2)


def min_eig_ratio(K):
    vals = np.linalg.eigvalsh(K)
    scale = max(vals.max(), 1e-300)
    return vals.min() / scale


def textbook_distances(X, Y):
    """Squared distances between the rows of two matrices, as one textbook expression."""
    with np.errstate(over="ignore", invalid="ignore"):
        sx, sy = np.sum(X * X, axis=1), np.sum(Y * Y, axis=1)
        return np.maximum(sx[:, None] + sy[None, :] - 2.0 * (X @ Y.T), 0.0)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestEvalKernel:
    def test_rbf_identical_points(self):
        for sigma in (0.3, 1.0, 17.0):
            assert eval_kernel(KernelSpec("rbf", sigma), [1.0, 2.0], [1.0, 2.0]) == 1.0

    def test_rbf_at_two_sigma_squared(self):
        # ||x-y||^2 = 2 sigma^2  ->  exp(-1)
        sigma = 1.7
        x = np.zeros(3)
        y = np.array([sigma * math.sqrt(2.0), 0.0, 0.0])
        val = eval_kernel(KernelSpec("rbf", sigma), x, y)
        assert val == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_linear_dot_product(self):
        assert eval_kernel(KernelSpec("linear"), [1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_poly2_is_shifted_square(self):
        assert eval_kernel(KernelSpec("poly2"), [1.0, 2.0], [3.0, 4.0]) == (11.0 + 1.0) ** 2

    def test_dimension_mismatch(self):
        with pytest.raises(InputError, match="mismatch"):
            eval_kernel(KernelSpec("linear"), [1.0], [1.0, 2.0])

    def test_invalid_spec(self):
        with pytest.raises(InputError):
            KernelSpec("rbf", -1.0)
        with pytest.raises(InputError, match="rbf kernel needs width"):
            KernelSpec("rbf", 1e308)  # 2 sigma^2 overflows a float
        with pytest.raises(InputError):
            KernelSpec("sigmoid", 1.0)

    @given(x=finite_vec, y=finite_vec)
    @settings(max_examples=50, deadline=None)
    def test_symmetry_exact(self, x, y):
        if len(x) != len(y):
            x = (x + y)[: min(len(x), len(y))]
            y = y[: len(x)]
        for spec in (KernelSpec("rbf", 2.0), KernelSpec("linear"), KernelSpec("poly2")):
            assert eval_kernel(spec, x, y) == eval_kernel(spec, y, x)


class TestGram:
    def test_single_sample_rbf(self):
        K = gram(KernelSpec("rbf", 1.0), np.array([[0.5, 1.5]]))
        np.testing.assert_array_equal(K, [[1.0]])

    def test_square_gram_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(9, 4))
        K = gram(KernelSpec("rbf", 0.8), X)
        np.testing.assert_array_equal(K, K.T)

    @pytest.mark.parametrize(
        "layout",
        [
            "contiguous",
            "row-strided",  # every other row of a larger matrix
            "column-strided",  # every other column: BLAS cannot read it as it is
            "fortran",
        ],
    )
    @pytest.mark.parametrize("spec", [KernelSpec("rbf", 4.0), KernelSpec("linear"), KernelSpec("poly2")])
    def test_square_grams_exactly_symmetric_at_scale(self, spec, layout):
        """A square Gram is symmetric as computed, bit for bit, with no symmetrizing pass."""
        X = np.random.default_rng(4).normal(size=(300, 20))
        rows = {
            "contiguous": X,
            "row-strided": np.repeat(X, 2, axis=0)[::2],
            "column-strided": np.repeat(X, 2, axis=1)[:, ::2],
            "fortran": np.asfortranarray(X),
        }[layout]
        K = gram(spec, rows)
        assert np.array_equal(K, K.T)
        if layout != "fortran":  # BLAS reads a Fortran matrix as it is, in its own order
            assert same_bits(K, gram(spec, X))

    def test_three_points_scalar_loop_oracle(self):
        X = np.array([[0.0, 0.0], [1.0, 0.5], [-0.3, 2.0]])
        spec = KernelSpec("rbf", 1.0)
        K = gram(spec, X)
        for u in range(3):
            for v in range(3):
                assert K[u, v] == pytest.approx(eval_kernel(spec, X[u], X[v]), abs=1e-15)

    def test_rbf_diagonal_ones_and_range(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(12, 3)) * 100.0
        # width comparable to the data scale, so no exp underflow to 0
        K = gram(KernelSpec("rbf", 100.0), X)
        np.testing.assert_array_equal(np.diag(K), np.ones(12))
        assert np.all(K > 0.0) and np.all(K <= 1.0)

    def test_cross_gram_shape_and_values(self):
        rng = np.random.default_rng(2)
        X, Y = rng.normal(size=(4, 3)), rng.normal(size=(6, 3))
        spec = KernelSpec("linear")
        C = gram(spec, Y, X)
        assert C.shape == (6, 4)
        assert C[2, 1] == pytest.approx(float(Y[2] @ X[1]))

    def test_empty_rejected(self):
        with pytest.raises(InputError, match="empty"):
            gram(KernelSpec("linear"), np.empty((0, 3)))

    def test_tiny_rbf_width_gives_the_identity(self):
        # 2 w^2 is subnormal: off-diagonal exponents overflow to -inf, whose exp is 0
        X = np.random.default_rng(3).normal(size=(5, 3))
        np.testing.assert_array_equal(gram(KernelSpec("rbf", 1e-155), X), np.eye(5))

    def test_rbf_width_whose_square_underflows_is_a_numeric_error(self):
        # 2 w^2 is 0: the diagonal's 0 / 0 is NaN, reported once as a NumericError
        X = np.random.default_rng(3).normal(size=(5, 3))
        with pytest.raises(NumericError, match="non-finite"):
            gram(KernelSpec("rbf", 1e-200), X)


class TestSquaredDistancesOracle:
    """squared_distances has the bits of the textbook expression, NaNs and infs included."""

    @pytest.mark.parametrize("m, g, d", [(1, 1, 1), (7, 5, 3), (300, 240, 20)])
    def test_two_dimensional(self, m, g, d):
        rng = np.random.default_rng(m)
        X, Y = rng.normal(size=(m, d)) * 3.0, rng.normal(size=(g, d))
        assert same_bits(squared_distances(X, Y), textbook_distances(X, Y))
        assert same_bits(squared_distances(X, X), textbook_distances(X, X))

    def test_stacked(self):
        rng = np.random.default_rng(1)
        X, Y = rng.normal(size=(2, 3, 40, 6)), rng.normal(size=(2, 3, 30, 6))
        sq = squared_distances(X, Y)
        assert sq.shape == (2, 3, 40, 30)
        for k in np.ndindex(2, 3):
            assert same_bits(sq[k], textbook_distances(X[k], Y[k]))

    def test_broadcast(self):
        rng = np.random.default_rng(2)
        X, Y = rng.normal(size=(40, 6)), rng.normal(size=(4, 30, 6))
        sq = squared_distances(X, Y)
        assert sq.shape == (4, 40, 30)
        for k in range(4):
            assert same_bits(sq[k], textbook_distances(X, Y[k]))
        assert same_bits(squared_distances(Y, X)[2], textbook_distances(Y[2], X))

    def test_overflowing_rows(self):
        rng = np.random.default_rng(3)
        X, Y = rng.normal(size=(6, 4)), rng.normal(size=(5, 4))
        X[1] *= 1e160  # |x|^2 overflows to inf
        Y[3] *= 1e160
        X[4, 0] = 1e155  # finite |x|^2, overflowing 2 <x, y> against Y[3]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # overflows stay silent
            sq = squared_distances(X, Y)
        ref = textbook_distances(X, Y)
        assert np.isnan(sq).any() and np.isinf(sq).any()
        assert same_bits(sq, ref)


def reference_gram(spec, rows, cols=None):
    """One spec's Gram, each spec from its own distance matrix, by the textbook formula."""
    same = cols is None
    cols = rows if same else cols
    if spec.kind == "rbf":
        sq = squared_distances(rows, cols)
        if same:
            np.fill_diagonal(sq, 0.0)
        K = np.exp(-sq / (2.0 * spec.width**2))
    elif spec.kind == "linear":
        K = rows @ cols.T
    else:
        K = (rows @ cols.T + 1.0) ** 2
    if same:
        K = 0.5 * (K + K.T)
    return K


_specs = st.lists(
    st.one_of(
        st.builds(lambda w: KernelSpec("rbf", w), st.floats(1e-2, 1e3)),
        st.just(KernelSpec("linear")),
        st.just(KernelSpec("poly2")),
    ),
    max_size=6,
)


class TestGrams:
    """One distance matrix per (rows, cols) pair feeds every rbf block, bit for bit."""

    @given(specs=_specs, square=st.booleans(), seed=st.integers(0, 2**16),
           n=st.integers(1, 9), m=st.integers(1, 9), d=st.integers(1, 5))
    @settings(max_examples=120, deadline=None)
    def test_every_block_equals_its_own_gram(self, specs, square, seed, n, m, d):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(n, d)) * rng.choice([0.1, 1.0, 30.0])
        cols = None if square else rng.normal(size=(m, d))
        blocks = list(grams(specs, rows, cols))
        assert len(blocks) == len(specs)
        for spec, K in zip(specs, blocks):
            assert np.array_equal(K, reference_gram(spec, rows, cols)), spec
            assert np.array_equal(gram(spec, rows, cols), K)

    @pytest.mark.parametrize("square", [True, False])
    def test_one_distance_matrix_for_every_rbf(self, monkeypatch, square):
        calls = []

        def counted(*args):
            calls.append(args)
            return squared_distances(*args)

        monkeypatch.setattr(kernels, "squared_distances", counted)
        rng = np.random.default_rng(3)
        rows, cols = rng.normal(size=(7, 3)), None if square else rng.normal(size=(5, 3))
        specs = [KernelSpec("linear"), KernelSpec("rbf", 0.5), KernelSpec("poly2"),
                 KernelSpec("rbf", 2.0), KernelSpec("rbf", 9.0)]
        assert len(list(grams(specs, rows, cols))) == 5
        assert len(calls) == 1
        calls.clear()
        list(grams([specs[0], specs[2]], rows, cols))  # linear and poly2 need no distances
        assert calls == []

    def test_checks_run_before_any_block(self):
        with pytest.raises(InputError, match="dimension mismatch"):
            next(grams([KernelSpec("linear")], np.ones((2, 3)), np.ones((2, 4))))
        with pytest.raises(InputError, match="empty"):
            next(grams([KernelSpec("rbf", 1.0)], np.empty((0, 3))))

    @pytest.mark.parametrize("square", [True, False])
    def test_blocks_are_read_only_arrays(self, square):
        rng = np.random.default_rng(6)
        rows, cols = rng.normal(size=(4, 2)), None if square else rng.normal(size=(3, 2))
        for K in grams([KernelSpec("rbf", 1.0), KernelSpec("linear"), KernelSpec("poly2")],
                       rows, cols):
            assert type(K) is np.ndarray and K.dtype == np.float64
            assert not K.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                K[0, 0] = 0.0


class TestRmsWidth:
    def _ds(self, rows):
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        n = rows.shape[0]
        return Dataset(rows, tuple(f"i{k}" for k in range(n)), tuple(k % 2 for k in range(n)))

    def test_two_points_distance_three(self):
        ds = self._ds([[0.0], [3.0]])
        assert rms_width(ds, [0, 1]) == pytest.approx(3.0, rel=1e-14)

    def test_identical_points_error(self):
        ds = self._ds([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
        with pytest.raises(NumericError, match="identical"):
            rms_width(ds, [0, 1, 2])

    def test_three_point_enumeration(self):
        # pairs: 1, 9, 4 -> sqrt(14/3)
        ds = self._ds([[0.0], [1.0], [3.0]])
        assert rms_width(ds, [0, 1, 2]) == pytest.approx(math.sqrt(14.0 / 3.0), rel=1e-14)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(10, 5))
        Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        shifted = X @ Q.T + rng.normal(size=5) * 1e3
        a = rms_width(self._ds(X), range(10))
        b = rms_width(self._ds(shifted), range(10))
        assert abs(a - b) / a < 1e-10

    def test_needs_two_samples(self):
        ds = self._ds([[0.0], [1.0]])
        with pytest.raises(InputError, match="at least 2"):
            rms_width(ds, [0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e160, 1e154, 1e307])
    def test_too_large_for_an_rbf_width(self, scale):
        # 1e160 and 1e307 overflow to inf and nan; 1e154 is finite but above MAX_RBF_WIDTH
        ds = self._ds(np.random.default_rng(4).normal(size=(6, 3)) * scale)
        with pytest.raises(NumericError, match="rms pairwise distance .* too large"):
            rms_width(ds, range(6))


class TestWidthGrid:
    def test_endpoints(self):
        assert width_grid(1.0, 2, 0.1, 10.0) == pytest.approx([0.1, 10.0], rel=1e-14)

    def test_geometric_midpoint(self):
        assert width_grid(1.0, 3, 0.1, 10.0) == pytest.approx([0.1, 1.0, 10.0], rel=1e-12)

    def test_constant_ratio_q20(self):
        widths = width_grid(2.5, 20, 0.1, 10.0)
        ratios = [widths[k + 1] / widths[k] for k in range(19)]
        assert ratios == pytest.approx([100.0 ** (1.0 / 19.0)] * 19, rel=1e-10)
        assert widths[0] == pytest.approx(0.25, rel=1e-12)
        assert widths[-1] == pytest.approx(25.0, rel=1e-12)

    def test_invalid_ranges(self):
        with pytest.raises(InputError):
            width_grid(1.0, 5, 10.0, 0.1)
        with pytest.raises(InputError):
            width_grid(1.0, 1, 0.1, 10.0)
        with pytest.raises(InputError):
            width_grid(-1.0, 5, 0.1, 10.0)


def np_config(specs, weights):
    """An np config over ``specs`` with ``weights``; n_top counts the nonzero ones."""
    return MklConfig("np", tuple(specs), weights=tuple(weights),
                     n_top=int(np.count_nonzero(weights)))


def sm_config(tau):
    """An sm config over a two-kernel bank; its fuse reads only the Grams it is given."""
    return MklConfig("sm", (KernelSpec("linear"),) * 2, pair=(0, 1), tau=tau)


class TestCombineConvex:
    """np-mfml's weighted sum, by MklConfig.fuse."""

    def test_one_hot_returns_that_kernel(self):
        X = np.random.default_rng(3).normal(size=(5, 2))
        specs = [KernelSpec("rbf", w) for w in (0.5, 1.0, 2.0)]
        cfg = np_config(specs, [0.0, 1.0, 0.0])
        out = cfg.fuse(list(grams(cfg.specs, X)))
        np.testing.assert_array_equal(out, gram(specs[1], X))

    def test_equal_kernels_any_weights(self):
        X = np.random.default_rng(4).normal(size=(5, 2))
        spec = KernelSpec("rbf", 1.3)
        cfg = np_config([spec] * 3, [0.2, 0.5, 0.3])
        out = cfg.fuse(list(grams(cfg.specs, X)))
        np.testing.assert_allclose(out, gram(spec, X), atol=1e-15)

    def test_hand_weighted_sum(self):
        K1 = np.array([[1.0, 0.5], [0.5, 1.0]])
        K2 = np.array([[2.0, 1.0], [1.0, 3.0]])
        out = np_config([KernelSpec("linear")] * 2, [0.25, 0.75]).fuse([K1, K2])
        np.testing.assert_allclose(out, [[1.75, 0.875], [0.875, 2.5]], atol=1e-15)

    def test_weight_constraints(self):
        bank = (KernelSpec("linear"),) * 2
        with pytest.raises(InputError, match="non-negative"):
            MklConfig("np", bank, weights=(-0.1, 1.1), n_top=1)
        with pytest.raises(InputError, match="sum to 1"):
            MklConfig("np", bank, weights=(0.6, 0.6), n_top=2)
        with pytest.raises(InputError, match="length-q"):
            MklConfig("np", bank, weights=(1.0,), n_top=1)


class TestCombineSm:
    """sm-mfml's squared-matrix fusion, by MklConfig.fuse."""

    def test_equal_inputs_vanishing_difference(self):
        K = np.array([[2.0, 0.3], [0.3, 1.0]])
        np.testing.assert_allclose(sm_config(5.0).fuse([K, K]), K, atol=1e-15)

    def test_tau_zero_is_average(self):
        K1 = np.array([[2.0, 0.0], [0.0, 4.0]])
        K2 = np.array([[1.0, 0.0], [0.0, 2.0]])
        out = sm_config(0.0).fuse([K1, K2])
        np.testing.assert_allclose(out, [[1.5, 0.0], [0.0, 3.0]], atol=1e-15)

    def test_hand_two_by_two(self):
        K1 = np.array([[2.0, 0.0], [0.0, 1.0]])
        out = sm_config(1.0).fuse([K1, np.eye(2)])
        np.testing.assert_allclose(out, [[2.5, 0.0], [0.0, 1.0]], atol=1e-15)

    def test_errors(self):
        with pytest.raises(InputError, match="non-negative"):
            sm_config(-0.5)

    def test_equals_reference_expression_bit_for_bit(self):
        X = np.random.default_rng(5).normal(size=(7, 3))
        Ki, Kj = grams([KernelSpec("rbf", 0.7), KernelSpec("rbf", 2.5)], X)
        tau = 0.37
        D = Ki - Kj
        ref = 0.5 * (Ki + Kj) + tau * (D @ D)
        ref = 0.5 * (ref + ref.T)
        assert np.array_equal(sm_config(tau).fuse([Ki, Kj]), ref)

    def test_overflowing_tau_raises(self):
        # D = diag(2, 0), so tau * (D @ D) holds 4 * 1e308 = inf
        K1 = np.array([[3.0, 0.0], [0.0, 1.0]])
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="non-finite"):
            sm_config(1e308).fuse([K1, np.eye(2)])


class TestPsdProperties:
    def test_rbf_grams_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n, d = rng.integers(4, 30), rng.integers(2, 8)
            X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10)
            K = gram(KernelSpec("rbf", float(rng.uniform(0.2, 20))), X)
            assert min_eig_ratio(K) >= -1e-8

    def test_convex_combination_preserves_psd(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(3, 15))
            q = int(rng.integers(2, 5))
            X = rng.normal(size=(n, 4))
            specs = [KernelSpec("rbf", float(rng.uniform(0.3, 5))) for _ in range(q)]
            beta = rng.dirichlet(np.ones(q))
            beta = beta / beta.sum()
            out = np_config(specs, beta).fuse(list(grams(specs, X)))
            assert min_eig_ratio(out) >= -1e-8

    def test_sm_combination_preserves_psd(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            A1 = rng.normal(size=(n, n))
            A2 = rng.normal(size=(n, n))
            out = sm_config(float(rng.uniform(0, 3))).fuse([A1 @ A1.T, A2 @ A2.T])
            np.testing.assert_array_equal(out, out.T)
            assert min_eig_ratio(out) >= -1e-8


class TestNonFiniteValidation:
    def test_nonfinite_rejected(self):
        # <x, x> = 1e400 overflows; inf - inf leaves a NaN squared distance
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="non-finite"):
            gram(KernelSpec("linear"), np.array([[1e200, 0.0]]))
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="non-finite"):
            gram(KernelSpec("rbf", 1.0), np.array([[np.inf]]), np.array([[0.0]]))
