"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion alongside the pytest verdicts.
"""

import subprocess
import sys
import time
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from kfmetric.cli import main
from kfmetric.config import RunConfig
from kfmetric.data import Dataset, SplitPlan, index_classes, load_features
from kfmetric.evaluation import run_trials, dimension_sweep, write_sweep_csv
from kfmetric.kernels import KernelSpec, gram, grams, squared_distances
from kfmetric.kfda import build_scatter, solve_kfda, train
from kfmetric.metric import embed_batch
from kfmetric.mkl import MklConfig, np_weights

from oracles import (
    input_space_fda_projection,
    naive_scatter,
    poly2_map,
)


def ok(num, message):
    print(f"\nACCEPTANCE {num} PASS - {message}")


def min_eig_ratio(K):
    vals = np.linalg.eigvalsh(K)
    return vals.min() / max(vals.max(), 1e-300)


def full_train_plan(ds):
    return SplitPlan(frozenset(ds.identities), frozenset(), 0, 0, 1)


@pytest.fixture(scope="module")
def confounded_fixture(tmp_path_factory):
    """The bundled two-view fixture, written by the synth command itself:
    40 identities, d=20, shared view offset far above the class spread."""
    path = tmp_path_factory.mktemp("acceptance") / "confounded.csv"
    assert main(["synth", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def method_reports(confounded_fixture):
    ds = load_features(confounded_fixture)
    cfg = RunConfig(trials=10, base_seed=0)
    reports = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for method in ("euclidean", "kfda", "np-mfml", "sm-mfml"):
            reports[method] = run_trials(ds, method, 10, 0, cfg)
    return reports


def test_criterion_01_linear_kernel_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    n_ids, per_id, d = 10, 6, 5  # n = 60, c = 10
    centers = rng.normal(size=(n_ids, d)) * 3.0
    rows, ids, cams = [], [], []
    for i in range(n_ids):
        for j in range(per_id):
            rows.append(centers[i] + rng.normal(size=d))
            ids.append(f"c{i}")
            cams.append(j % 2)
    ds = Dataset(np.array(rows), tuple(ids), tuple(cams))

    # rank(Q) = d on the eps=0 path, so p = 5 discriminants exist
    p = 5
    model = train(ds, full_train_plan(ds), KernelSpec("linear"), eps=0.0, p=p)

    W, _ = input_space_fda_projection(ds.features, list(ids), p)
    Y = rng.normal(size=(15, d)) * 2.0
    d_model = squared_distances(embed_batch(model, Y), embed_batch(model, Y))
    ref = Y @ W
    d_ref = squared_distances(ref, ref)
    mask = ~np.eye(15, dtype=bool)
    rel = np.abs(d_model[mask] - d_ref[mask]) / np.abs(d_ref[mask])
    elapsed = time.perf_counter() - started

    assert rel.max() < 1e-6
    assert elapsed < 5.0
    ok(1, f"kernel pipeline matches input-space discriminant distances "
          f"(max rel err {rel.max():.2e}, {elapsed:.2f}s)")


def test_criterion_02_explicit_map_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    # n = 12, d = 2, c = 4
    X = rng.normal(size=(12, 2)) + np.repeat(rng.normal(size=(4, 2)) * 2.0, 3, axis=0)
    ids = tuple(f"c{i // 3}" for i in range(12))
    ds = Dataset(X, ids, tuple(i % 2 for i in range(12)))
    model = train(ds, full_train_plan(ds), KernelSpec("poly2"), eps=1e-7, p=3)

    W = poly2_map(model.train_basis).T @ model.A
    Y = rng.normal(size=(20, 2)) * 1.5
    got = embed_batch(model, Y)
    expected = poly2_map(Y) @ W
    err = np.abs(got - expected).max()
    elapsed = time.perf_counter() - started

    assert err < 1e-8
    assert elapsed < 1.0
    ok(2, f"embed equals explicit quadratic-map projection "
          f"(max abs err {err:.2e}, {elapsed:.2f}s)")


def test_criterion_03_scatter_matches_triple_loop():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(8, 3))
    labels = ["a", "a", "a", "b", "b", "b", "c", "c"]
    ds = Dataset(X, tuple(labels), tuple(k % 2 for k in range(8)))
    K = gram(KernelSpec("rbf", 1.3), X)
    sc = build_scatter(K, index_classes(ds, range(8)))
    P_ref, Q_ref, _, _ = naive_scatter(K, labels)
    p_err = np.abs(sc.P - P_ref).max()
    q_err = np.abs(sc.Q - Q_ref).max()
    assert p_err <= 1e-10
    assert q_err <= 1e-10
    ok(3, f"scatter surrogates match direct summation entrywise "
          f"(P err {p_err:.2e}, Q err {q_err:.2e})")


def test_criterion_04_rayleigh_optimality():
    rng = np.random.default_rng(2024)
    eps = 1e-7
    violations = 0
    for _ in range(20):
        n_ids = int(rng.integers(2, 6))
        per = int(rng.integers(3, 7))
        d = int(rng.integers(3, 7))
        X = rng.normal(size=(n_ids * per, d)) + np.repeat(
            rng.normal(size=(n_ids, d)) * 2.0, per, axis=0
        )
        labels = tuple(f"c{i // per}" for i in range(n_ids * per))
        ds = Dataset(X, labels, tuple(i % 2 for i in range(len(labels))))
        K = gram(KernelSpec("rbf", 2.0), X)
        sc = build_scatter(K, index_classes(ds, range(len(labels))))
        model = solve_kfda(sc, p=1, eps=eps)
        alpha = model.A[:, 0]
        n = len(labels)
        B = sc.Q + eps * np.eye(n)
        best = float(alpha @ sc.P @ alpha) / float(alpha @ B @ alpha)
        V = rng.normal(size=(1000, n))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        nums = np.einsum("ij,jk,ik->i", V, sc.P, V)
        dens = np.einsum("ij,jk,ik->i", V, B, V)
        violations += int(np.sum(nums / dens > best))
    assert violations == 0
    ok(4, "leading discriminant beats 1000 random unit vectors on all 20 instances")


def test_criterion_05_psd_suite():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        n, d = int(rng.integers(4, 30)), int(rng.integers(2, 8))
        X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10)
        K = gram(KernelSpec("rbf", float(rng.uniform(0.2, 20))), X)
        worst = min(worst, min_eig_ratio(K))
    assert worst >= -1e-8

    worst_cc = 0.0
    for _ in range(100):
        n, q = int(rng.integers(3, 15)), int(rng.integers(2, 6))
        X = rng.normal(size=(n, 4))
        specs = [KernelSpec("rbf", float(rng.uniform(0.3, 5))) for _ in range(q)]
        beta = rng.dirichlet(np.ones(q))
        out = MklConfig("np", specs, weights=tuple(beta), n_top=q).fuse(list(grams(specs, X)))
        worst_cc = min(worst_cc, min_eig_ratio(out))
    assert worst_cc >= -1e-8

    worst_sm = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 12))
        A1, A2 = rng.normal(size=(2, n, n))
        sm = MklConfig("sm", (KernelSpec("linear"),) * 2, pair=(0, 1), tau=float(rng.uniform(0, 3)))
        out = sm.fuse([A1 @ A1.T, A2 @ A2.T])
        worst_sm = min(worst_sm, min_eig_ratio(out))
    assert worst_sm >= -1e-8
    ok(5, f"100x3 randomized PSD checks hold (worst relative eigenvalues "
          f"{worst:.1e}, {worst_cc:.1e}, {worst_sm:.1e})")


def test_criterion_06_np_weight_suite():
    rng = np.random.default_rng(123)
    checked = 0
    while checked < 1000:
        q = int(rng.integers(3, 21))
        pis = rng.uniform(0.0, 1.0, size=q)
        if len(set(pis.tolist())) != q:
            continue
        N = int(rng.integers(1, q))
        beta = np_weights(pis.tolist(), N)
        assert all(b >= 0 for b in beta)
        assert abs(sum(beta) - 1.0) <= 1e-12
        assert sum(1 for b in beta if b != 0) == N
        checked += 1

    exact = np_weights([Fraction(9, 10), Fraction(8, 10), Fraction(5, 10)], N=2)
    assert exact == [Fraction(4, 7), Fraction(3, 7), 0]
    ok(6, "1000 random weight vectors satisfy the simplex/support constraints; "
          "worked example is exactly (4/7, 3/7, 0) in rational arithmetic")


def test_criterion_07_end_to_end_separation(method_reports):
    started = time.perf_counter()
    euclid = method_reports["euclidean"]
    kfda = method_reports["kfda"]
    np_rep = method_reports["np-mfml"]
    sm_rep = method_reports["sm-mfml"]

    assert kfda.rank_accuracy(1) > euclid.rank_accuracy(1)
    # stronger: strict in every one of the ten trials
    assert np.all(kfda.per_trial[:, 0] > euclid.per_trial[:, 0])
    assert np_rep.rank_accuracy(1) >= kfda.rank_accuracy(1) - 0.02
    assert sm_rep.rank_accuracy(1) >= kfda.rank_accuracy(1) - 0.02
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0  # fixture evaluation is shared; this test's own work
    ok(7, f"metric learning lifts rank-1 from {euclid.rank_accuracy(1):.3f} to "
          f"{kfda.rank_accuracy(1):.3f}; multi-kernel variants within 2 points "
          f"(np {np_rep.rank_accuracy(1):.3f}, sm {sm_rep.rank_accuracy(1):.3f})")


def test_criterion_08_cmc_properties(method_reports):
    for method, report in method_reports.items():
        for row in report.per_trial:
            assert np.all(np.diff(row) >= 0), f"{method}: non-monotone trial curve"
        assert np.all(np.diff(report.mean_accuracy) >= 0)
        # every probe identity is present in these galleries
        assert report.mean_accuracy[-1] == 1.0
    ok(8, "all CMC curves non-decreasing; final-rank accuracy is 1.0 in every run")


def test_criterion_09_rerun_byte_identical(confounded_fixture, tmp_path):
    def run(cmd, outdir, *extra):
        proc = subprocess.run(
            [
                sys.executable, "-m", "kfmetric", cmd,
                "--features", str(confounded_fixture), "--out", str(outdir),
                "--seed", "0", "--trials", "2", "--q", "4", "--folds", "4",
                *extra,
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    pairs = []
    for cmd, artifact, extra in (
        ("evaluate", "cmc.csv", ("--method", "kfda")),
        ("cv", "cv.csv", ()),
        ("sweep", "sweep.csv", ("--method", "kfda", "--p-values", "1,5,19")),
    ):
        blobs = []
        for rerun in ("first", "second"):
            outdir = tmp_path / f"{cmd}_{rerun}"
            run(cmd, outdir, *extra)
            blobs.append((outdir / artifact).read_bytes())
        assert blobs[0] == blobs[1], f"{cmd}: rerun changed {artifact}"
        pairs.append(cmd)
    ok(9, f"reruns byte-identical for {', '.join(pairs)} outputs")


def test_criterion_10_subspace_sweep(confounded_fixture, tmp_path):
    ds = load_features(confounded_fixture)
    cfg = RunConfig(trials=2, base_seed=0, q=4, folds=4)
    p_values = [1, 2, 5, 10, 19]  # c-1 = 19 with 20 training identities
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = dimension_sweep(ds, "kfda", p_values, 2, 0, cfg)
    table = dict(rows)
    assert [p for p, _ in rows] == p_values
    assert table[19] >= table[1]
    out = tmp_path / "sweep.csv"
    write_sweep_csv(rows, out)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + len(p_values)
    ok(10, f"sweep emitted for all requested dimensions; rank-1 at p=19 "
           f"({table[19]:.3f}) >= rank-1 at p=1 ({table[1]:.3f})")
