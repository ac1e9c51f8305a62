import contextlib
import threading
import weakref

import numpy as np
import pytest

from kfmetric import kernels, metric, threads
from kfmetric.data import Dataset, SplitPlan, index_classes
from kfmetric.errors import InputError, NumericError
from kfmetric.kernels import KernelSpec, gram, squared_distances
from kfmetric.kfda import DEFAULT_EPS, _with_kernel, build_scatter, solve_kfda, train
from kfmetric.mkl import MklConfig
from kfmetric.metric import embed_batch, euclidean_score_matrix, score_matrix

from oracles import poly2_map
from test_threads import MODES, use_mode


def small_problem(n_ids=4, per_id=3, d=3, seed=0):
    """A few clustered identities, all of them training identities."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_ids, d)) * 3.0
    rows, ids, cams = [], [], []
    for i in range(n_ids):
        for j in range(per_id):
            rows.append(centers[i] + rng.normal(size=d) * 0.5)
            ids.append(f"c{i}")
            cams.append(j % 2)
    ds = Dataset(np.array(rows), tuple(ids), tuple(cams))
    plan = SplitPlan(
        train_ids=frozenset(ds.identities),
        test_ids=frozenset(),
        trial_seed=0,
        probe_camera=0,
        gallery_camera=1,
    )
    return ds, plan


def small_model(n_ids=4, per_id=3, d=3, seed=0, kind="rbf", width=2.0, eps=1e-7, p=None):
    ds, plan = small_problem(n_ids, per_id, d, seed)
    spec = KernelSpec(kind, width if kind == "rbf" else None)
    return ds, train(ds, plan, spec, eps=eps, p=p)


BANK4 = tuple(KernelSpec("rbf", w) for w in (0.7, 1.4, 2.0, 5.0))


class TestEmbed:
    def test_training_sample_reproduces_gram_column(self):
        # every kernel config, folded into terms, embeds a basis row j as A^T K[:, j]
        ds, plan = small_problem(seed=1)
        bank = tuple(KernelSpec("rbf", w) for w in (0.7, 2.0, 5.0))
        configs = (
            bank[1],
            MklConfig("np", bank, weights=(0.5, 0.0, 0.5), n_top=2),
            MklConfig("sm", bank, pair=(2, 0), tau=0.3),
        )
        for kernel in configs:
            model = train(ds, plan, kernel)
            K = kernel.fuse([gram(s, model.train_basis) for s in kernel.specs])
            for j in (0, 4, 7):
                coords = embed_batch(model, model.train_basis[j : j + 1])[0]
                np.testing.assert_allclose(coords, model.A.T @ K[:, j], rtol=0, atol=1e-10)

    def test_cv_fold_embedding_matches_served_model(self):
        # cross-validation embeds a fold's held-out rows from pool-Gram slices
        # through fold; serving embeds them through the terms of the model
        # folded from the same A over the fold's training rows
        ds, _ = small_problem(n_ids=5, seed=3)
        X = ds.features
        tr, held = list(range(12)), list(range(12, 15))
        idx = index_classes(ds, tr)
        bank = tuple(KernelSpec("rbf", w) for w in (0.7, 2.0, 5.0))
        for kernel in (
            bank[1],
            MklConfig("np", bank, weights=(0.25, 0.0, 0.75), n_top=2),
            MklConfig("sm", bank, pair=(2, 0), tau=0.3),
        ):
            pool = [gram(s, X) for s in kernel.specs]
            grams = [K[np.ix_(tr, tr)] for K in pool]
            solved = solve_kfda(build_scatter(kernel.fuse(grams), idx), idx.n_classes - 1)
            cv = sum(
                K[np.ix_(held, tr)] @ A_t for K, A_t in zip(pool, kernel.fold(grams)(solved.A))
            )
            fold = kernel.fold([gram(s, X[tr]) for s in kernel.specs])
            served = _with_kernel(solved, DEFAULT_EPS, X[tr], kernel, fold)
            np.testing.assert_allclose(cv, embed_batch(served, X[held]), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("kernel", [
        MklConfig("np", BANK4, weights=(0.5, 0.0, 0.3, 0.2), n_top=3),
        MklConfig("sm", BANK4, pair=(3, 1), tau=0.3),
    ], ids=["np-3", "sm"])
    def test_one_distance_matrix_per_batch(self, monkeypatch, kernel):
        from kfmetric import kernels

        ds, plan = small_problem(n_ids=5, seed=4)
        model = train(ds, plan, kernel)
        Y = np.random.default_rng(5).normal(size=(7, 3))
        # the textbook sum over terms, each kernel from its own distance matrix
        expected = sum(gram(spec, Y, model.train_basis) @ A_t for spec, A_t in model.terms)
        calls = []

        def counted(*args):
            calls.append(args)
            return squared_distances(*args)

        monkeypatch.setattr(kernels, "squared_distances", counted)
        got = embed_batch(model, Y)
        assert len(model.terms) == len(kernel.specs) and len(calls) == 1
        assert np.array_equal(got, expected)

    def test_truncated_model_embeds_leading_columns(self):
        # leading eigenpairs nest: a model trained at p embeds as the p leading
        # columns of the full model, which is how dimension_sweep truncates
        ds, plan = small_problem(seed=2)
        bank = tuple(KernelSpec("rbf", w) for w in (0.7, 2.0, 5.0))
        Y = ds.features[:5]
        for kernel in (bank[0], MklConfig("sm", bank, pair=(0, 1), tau=0.2)):
            full = train(ds, plan, kernel)
            assert full.p == 3
            for p in (1, 2):
                cut = train(ds, plan, kernel, p=p)
                np.testing.assert_array_equal(cut.eigvals, full.eigvals[:p])
                np.testing.assert_allclose(cut.A, full.A[:, :p], rtol=0, atol=1e-12)
                np.testing.assert_allclose(
                    embed_batch(cut, Y), embed_batch(full, Y)[:, :p], rtol=0, atol=1e-12
                )

    def test_single_discriminant_scalar_shape(self):
        ds, model = small_model(n_ids=2, seed=2)
        assert model.p == 1
        assert embed_batch(model, ds.features[:1]).shape == (1, 1)

    def test_poly2_matches_explicit_feature_map(self):
        # d=2 so the explicit 6-dimensional map is exact
        ds, model = small_model(n_ids=2, per_id=3, d=2, seed=3, kind="poly2")
        Phi = poly2_map(model.train_basis)
        W = Phi.T @ model.A
        rng = np.random.default_rng(4)
        Y = rng.normal(size=(8, 2)) * 1.5
        got = embed_batch(model, Y)
        expected = poly2_map(Y) @ W
        np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_dimension_mismatch(self):
        ds, model = small_model(seed=5)
        with pytest.raises(InputError, match="dimension"):
            embed_batch(model, np.zeros((1, 7)))

    def test_batch_matches_scalar(self):
        ds, model = small_model(seed=6)
        rng = np.random.default_rng(7)
        Y = rng.normal(size=(5, 3))
        batch = embed_batch(model, Y)
        for i in range(5):
            np.testing.assert_allclose(batch[i], embed_batch(model, Y[i : i + 1])[0], atol=1e-12)

    def test_probe_count_equal_to_train_count(self):
        # the cross Gram is square here; it must not be mistaken for a
        # single-basis Gram and symmetry-checked
        ds, model = small_model(seed=6)
        rng = np.random.default_rng(8)
        Y = rng.normal(size=(model.n_train, 3))
        assert embed_batch(model, Y).shape == (model.n_train, model.p)


def _watched_helper(monkeypatch, log, product=np.matmul):
    """Make threads.helper's start count what it runs in ``log``; the helper runs ``product``.

    ``log`` gains "started" (products handed over), "in_flight" (started, not
    yet waited for; a start asserts it is 0) and "on_main" (per product run,
    whether it ran on the main thread).
    """
    helper = threads.helper
    log.update(started=0, in_flight=0, on_main=[])

    @contextlib.contextmanager
    def watched(name):
        with helper(name) as start:
            if start is None:
                yield None
                return

            def counted(fn, *args):
                assert fn is np.matmul and log["in_flight"] == 0
                log["started"] += 1
                log["in_flight"] += 1

                def run(*args):
                    log["on_main"].append(threading.current_thread() is threading.main_thread())
                    return product(*args)

                wait = start(run, *args)

                def done():
                    log["in_flight"] -= 1
                    return wait()

                return done

            yield counted

    monkeypatch.setattr(threads, "helper", watched)


def _main_thread_steps(monkeypatch, steps):
    """Record in ``steps``, per call of grams' blocks, rbf_blocks and squared_distances,
    whether it ran on the main thread."""
    def recorded(name, fn):
        def step(*args, **kwargs):
            steps.append((name, threading.current_thread() is threading.main_thread()))
            return fn(*args, **kwargs)

        return step

    grams = kernels.grams

    def blocks(*args):
        for K in grams(*args):
            steps.append(("grams", threading.current_thread() is threading.main_thread()))
            yield K

    monkeypatch.setattr(metric, "grams", blocks)
    for name in ("rbf_blocks", "squared_distances"):
        monkeypatch.setattr(kernels, name, recorded(name, getattr(kernels, name)))
    monkeypatch.setattr(metric, "squared_distances", recorded("squared_distances",
                                                              metric.squared_distances))


@pytest.fixture(scope="module")
def overlap_models():
    """A kfda, an np N = 3 and an sm model, and probes and gallery to serve them."""
    ds, plan = small_problem(n_ids=6, per_id=3, seed=4)
    rng = np.random.default_rng(6)
    P, G = rng.normal(size=(5, 3)) * 2.0, rng.normal(size=(9, 3)) * 2.0
    configs = {
        "kfda": BANK4[2],
        "np-3": MklConfig("np", BANK4, weights=(0.5, 0.0, 0.3, 0.2), n_top=3),
        "sm": MklConfig("sm", BANK4, pair=(3, 1), tau=0.3),
    }
    return {name: train(ds, plan, k) for name, k in configs.items()}, P, G


class TestOverlap:
    """A model's per-term products overlap on a helper thread, with the serial bits."""

    @pytest.mark.parametrize("name", ["kfda", "np-3", "sm"])
    def test_every_mode_gives_the_serial_bits(self, overlap_models, monkeypatch, name):
        models, P, G = overlap_models
        model = models[name]
        monkeypatch.setattr(metric, "_HELPER_MACS", 0)  # every product may go to the helper
        log, steps = {}, []
        _watched_helper(monkeypatch, log)
        _main_thread_steps(monkeypatch, steps)
        embedded, scores = {}, {}
        for mode, (_, helped) in MODES.items():
            use_mode(monkeypatch, mode)
            before = threading.active_count()
            embedded[mode] = embed_batch(model, G)
            assert threading.active_count() == before
            scores[mode] = score_matrix(model, P, G)
            assert threading.active_count() == before
            # the even-numbered terms with a next term, for each of three embeddings
            assert log["started"] == (3 * (len(model.terms) // 2) if helped else 0)
            assert log["on_main"] == [False] * log["started"] and log["in_flight"] == 0
            log.update(started=0, on_main=[])
        for mode in MODES:
            assert embedded[mode].tobytes() == embedded["blas-threads"].tobytes()
            assert scores[mode].tobytes() == scores["blas-threads"].tobytes()
        assert {name for name, _ in steps} == {"grams", "rbf_blocks", "squared_distances"}
        assert all(main for _, main in steps)

    def test_a_small_product_starts_no_thread(self, overlap_models, monkeypatch):
        models, _, G = overlap_models
        log = {}
        _watched_helper(monkeypatch, log)
        use_mode(monkeypatch, "helper")
        embed_batch(models["np-3"], G)
        assert log["started"] == 0

    @pytest.mark.parametrize("mode", ["blas-threads", "one-cpu"])
    def test_without_a_helper_one_block_lives_at_a_time(self, overlap_models, monkeypatch, mode):
        models, _, G = overlap_models
        monkeypatch.setattr(metric, "_HELPER_MACS", 0)
        use_mode(monkeypatch, mode)
        grams, refs, held = kernels.grams, [], []

        def watched(*args):
            for K in grams(*args):
                held.append(sum(r() is not None for r in refs))  # earlier blocks still alive
                refs.append(weakref.ref(K))
                yield K
                del K

        monkeypatch.setattr(metric, "grams", watched)
        embed_batch(models["np-3"], G)
        assert held == [0, 0, 0]

    @pytest.mark.parametrize("failing, message", [
        ("block", "block 1"),
        ("product", "product 0"),  # run in turn, the first product comes before the block
    ])
    def test_the_first_error_is_the_serial_one(self, overlap_models, monkeypatch, failing, message):
        models, _, G = overlap_models
        monkeypatch.setattr(metric, "_HELPER_MACS", 0)
        use_mode(monkeypatch, "helper")
        started, release = threading.Event(), threading.Event()

        def product(K, A):
            started.set()
            release.wait(10)
            if failing == "product":
                raise NumericError("product 0")
            return np.matmul(K, A)

        log = {}
        _watched_helper(monkeypatch, log, product)
        grams = kernels.grams

        def poisoned(*args):
            blocks = grams(*args)
            yield next(blocks)
            # the first product is in flight while the second block fails
            assert started.wait(10) and not release.is_set() and log["in_flight"] == 1
            release.set()
            raise NumericError("block 1")

        monkeypatch.setattr(metric, "grams", poisoned)
        before = threading.active_count()
        with pytest.raises(NumericError, match=f"^{message}$"):
            embed_batch(models["sm"], G)
        assert threading.active_count() == before
        assert log["on_main"] == [False]


def pair_score(model, y, z) -> float:
    """score_matrix's entry for one probe y and one gallery sample z."""
    return float(score_matrix(model, np.atleast_2d(y), np.atleast_2d(z))[0, 0])


class TestScore:
    def test_identical_points_zero(self):
        # norms enter through the Gram trick, so a self-distance is zero only to rounding
        ds, model = small_model(seed=8)
        y = ds.features[0]
        assert pair_score(model, y, y) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry_exact(self):
        ds, model = small_model(seed=9)
        rng = np.random.default_rng(10)
        for _ in range(10):
            y, z = rng.normal(size=(2, 3))
            assert pair_score(model, y, z) == pair_score(model, z, y)

    def test_linear_kernel_score_equals_fda_distance(self):
        # 5-sample linear-kernel model, c=2: score must equal the squared
        # distance between explicit input-space discriminant projections
        from oracles import input_space_fda_projection

        X = np.array([[0.0, 0.2], [0.5, -0.1], [0.2, 0.4], [3.0, 2.8], [3.3, 3.2]])
        ids = ("a", "a", "a", "b", "b")
        ds = Dataset(X, ids, (0, 1, 0, 1, 0))
        plan = SplitPlan(
            train_ids=frozenset(ids),
            test_ids=frozenset(),
            trial_seed=0,
            probe_camera=0,
            gallery_camera=1,
        )
        model = train(ds, plan, KernelSpec("linear"), eps=0.0, p=1)
        W, _ = input_space_fda_projection(X, list(ids), 1)
        rng = np.random.default_rng(11)
        for _ in range(20):
            y, z = rng.normal(size=(2, 2)) * 2.0
            expected = float(np.sum(((y - z) @ W) ** 2))
            assert pair_score(model, y, z) == pytest.approx(expected, abs=1e-8)

    def test_score_matrix_consistent_with_score(self):
        # every entry is the squared distance between embedding rows
        ds, model = small_model(seed=12)
        rng = np.random.default_rng(13)
        P, G = rng.normal(size=(3, 3)), rng.normal(size=(4, 3))
        mat = score_matrix(model, P, G)
        EP, EG = embed_batch(model, P), embed_batch(model, G)
        for i in range(3):
            for j in range(4):
                diff = EP[i] - EG[j]
                assert mat[i, j] == pytest.approx(float(diff @ diff), abs=1e-10)


class TestEuclideanScore:
    def test_zero_and_hand_value(self):
        M = euclidean_score_matrix([[0.0, 0.0]], [[0.0, 0.0], [3.0, 4.0]])
        assert M.tolist() == [[0.0, 25.0]]

    def test_symmetry(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            y, z = rng.normal(size=(2, 6))
            assert euclidean_score_matrix(y, z)[0, 0] == euclidean_score_matrix(z, y)[0, 0]

    def test_matrix_form(self):
        rng = np.random.default_rng(15)
        P, G = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
        M = euclidean_score_matrix(P, G)
        assert M.shape == (3, 5)
        diff = P[1] - G[2]
        assert M[1, 2] == pytest.approx(float(diff @ diff), abs=1e-12)


class TestMetricProperties:
    def test_sqrt_score_triangle_inequality(self):
        ds, model = small_model(seed=16)
        rng = np.random.default_rng(17)
        for _ in range(50):
            a, b, c = rng.normal(size=(3, 3)) * 2.0
            dab = np.sqrt(pair_score(model, a, b))
            dbc = np.sqrt(pair_score(model, b, c))
            dac = np.sqrt(pair_score(model, a, c))
            assert dac <= dab + dbc + 1e-10

    def test_kernel_scale_leaves_ranking_invariant(self):
        # scaling features by sqrt(gamma) scales a linear-kernel Gram by
        # gamma; with eps=0 the discriminants are unchanged and every score
        # picks up one common factor, so rankings are identical
        gamma = 4.2
        X = np.array(
            [[0.0, 0.1], [0.4, -0.2], [0.1, 0.5], [2.8, 3.1], [3.2, 2.7], [2.9, 3.4]]
        )
        ids = ("a", "a", "a", "b", "b", "b")
        cams = (0, 1, 0, 1, 0, 1)
        plan_ids = frozenset(ids)
        plan = SplitPlan(plan_ids, frozenset(), 0, 0, 1)
        ds1 = Dataset(X, ids, cams)
        ds2 = Dataset(np.sqrt(gamma) * X, ids, cams)
        m1 = train(ds1, plan, KernelSpec("linear"), eps=0.0, p=1)
        m2 = train(ds2, plan, KernelSpec("linear"), eps=0.0, p=1)
        np.testing.assert_allclose(m1.A, m2.A, atol=1e-9)
        rng = np.random.default_rng(18)
        probe = rng.normal(size=2)
        gallery = rng.normal(size=(6, 2))
        s1 = score_matrix(m1, probe[None, :], gallery)[0]
        s2 = score_matrix(m2, np.sqrt(gamma) * probe[None, :], np.sqrt(gamma) * gallery)[0]
        np.testing.assert_allclose(s2, gamma**2 * s1, rtol=1e-8)
        np.testing.assert_array_equal(np.argsort(s1), np.argsort(s2))

