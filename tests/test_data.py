import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfmetric import data
from kfmetric.data import (
    Dataset,
    SplitPlan,
    eligible_identities,
    index_classes,
    load_features,
    make_split,
    save_features,
)
from kfmetric.errors import InputError

from conftest import write_csv


def test_load_preserves_rows_and_order(tmp_path):
    path = write_csv(
        tmp_path / "f.csv",
        [
            "id,cam,f1,f2,f3",
            "a,0,1.0,2.0,3.0",
            "a,1,4.0,5.0,6.0",
            "b,0,7.0,8.0,9.0",
            "b,1,10.0,11.0,12.0",
        ],
    )
    ds = load_features(path)
    assert ds.n_samples == 4
    assert ds.dim == 3
    assert ds.identities == ("a", "a", "b", "b")
    assert ds.cameras == (0, 1, 0, 1)
    np.testing.assert_array_equal(ds.features[0], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(ds.features[3], [10.0, 11.0, 12.0])


def test_load_rejects_inf_with_line_number(tmp_path):
    path = write_csv(
        tmp_path / "f.csv",
        ["id,cam,f1", "a,0,1.0", "a,1,inf", "b,0,2.0", "b,1,3.0"],
    )
    with pytest.raises(InputError, match="line 3"):
        load_features(path)


def test_load_rejects_malformed_value(tmp_path):
    path = write_csv(tmp_path / "f.csv", ["id,cam,f1", "a,0,1.0", "a,1,oops"])
    with pytest.raises(InputError, match="line 3"):
        load_features(path)
    for cam, message in (("x", "line 4: camera label 'x' is not an integer"),
                         ("-1", "line 4: negative camera label -1")):
        path = write_csv(tmp_path / "f.csv", ["id,cam,f1", "a,0,1.0", "a,1,2.0", f"b,{cam},3.0"])
        with pytest.raises(InputError, match=message):
            load_features(path)


def test_load_names_the_file_line_after_a_multi_line_field(tmp_path):
    # the quoted id spans lines 2-3, so the bad value is on line 5 but in record 4
    path = tmp_path / "f.csv"
    path.write_text('id,cam,f1\n"a\nb",0,1.0\nc,1,2.0\nd,0,oops\n')
    with pytest.raises(InputError, match="line 5: malformed feature value"):
        load_features(path)
    path.write_text('id,cam,f1\n"a\nb",0,1.0\nc,1,2.0\n')
    assert load_features(path).identities == ("a\nb", "c")


@pytest.mark.parametrize(
    "third, fourth, message",
    [("inf", "abc", "non-finite"), ("abc", "inf", "malformed")],
    ids=["inf-first", "malformed-first"],
)
def test_load_reports_the_first_faulty_line(tmp_path, third, fourth, message):
    path = write_csv(
        tmp_path / "f.csv",
        ["id,cam,f1", "a,0,1.0", f"a,1,{third}", f"b,0,{fourth}", "b,1,2.0"],
    )
    with pytest.raises(InputError, match=f"line 3: {message} feature value"):
        load_features(path)


def test_load_rejects_ragged_row(tmp_path):
    path = write_csv(tmp_path / "f.csv", ["id,cam,f1,f2", "a,0,1.0,2.0", "a,1,3.0"])
    with pytest.raises(InputError, match="line 3"):
        load_features(path)


def test_load_rejects_single_sample(tmp_path):
    path = write_csv(tmp_path / "f.csv", ["id,cam,f1", "a,0,1.0"])
    with pytest.raises(InputError, match="at least 2"):
        load_features(path)


def test_load_rejects_bad_header(tmp_path):
    path = write_csv(tmp_path / "f.csv", ["name,cam,f1", "a,0,1.0", "b,1,2.0"])
    with pytest.raises(InputError, match="header"):
        load_features(path)


@pytest.mark.parametrize(
    "content",
    [b"id,cam,f1\na,0,1.0\n\xe9,1,2.0\n", b"id,cam,f1\na,0,1.0\n" + b"x" * 200_000 + b",1,2.0\n"],
    ids=["not-utf8", "field-over-csv-limit"],
)
def test_load_rejects_unreadable_csv(tmp_path, content):
    path = tmp_path / "f.csv"
    path.write_bytes(content)
    with pytest.raises(InputError, match="unreadable feature file"):
        load_features(path)


def test_load_skips_byte_order_mark(tmp_path, rng):
    ds = Dataset(rng.normal(size=(4, 3)), ("a", "a", "b", "b"), (0, 1, 0, 1))
    plain = tmp_path / "plain.csv"
    save_features(ds, plain)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    back = load_features(bom)
    np.testing.assert_array_equal(back.features, ds.features)
    assert back.identities == ds.identities
    assert back.cameras == ds.cameras


def test_load_missing_file_names_path(tmp_path):
    with pytest.raises(InputError, match="no_such"):
        load_features(tmp_path / "no_such.csv")


def test_six_row_class_index(tmp_path):
    path = write_csv(
        tmp_path / "f.csv",
        [
            "id,cam,f1",
            "a,0,0.0",
            "a,1,1.0",
            "b,0,2.0",
            "b,1,3.0",
            "c,0,4.0",
            "c,1,5.0",
        ],
    )
    ds = load_features(path)
    idx = index_classes(ds, range(6))
    assert idx.classes == ("a", "b", "c")
    assert idx.counts == (2, 2, 2)
    assert idx.n_total == 6


def test_round_trip_full_precision(tmp_path, rng):
    feats = rng.normal(size=(5, 4)) * np.pi
    ds = Dataset(feats, ("a", "a", "b", "b", "c"), (0, 1, 0, 1, 0))
    out = tmp_path / "rt.csv"
    save_features(ds, out)
    back = load_features(out)
    np.testing.assert_array_equal(back.features, ds.features)
    assert back.identities == ds.identities
    assert back.cameras == ds.cameras


def test_save_bytes_are_pinned(tmp_path):
    """Floats as their shortest repr, ids quoted as CSV needs, CRLF line ends."""
    feats = np.array([[-0.0, 5e-324, 1e-05], [1e16, 0.1, 1e300]])
    ds = Dataset(feats, ("a,b", 'q"x'), (0, 1))
    out = tmp_path / "pinned.csv"
    save_features(ds, out)
    assert out.read_bytes() == (
        b"id,cam,f1,f2,f3\r\n"
        b'"a,b",0,-0.0,5e-324,1e-05\r\n'
        b'"q""x",1,1e+16,0.1,1e+300\r\n'
    )
    back = load_features(out)
    assert back.features.tobytes() == feats.tobytes()
    assert back.identities == ds.identities
    assert back.cameras == ds.cameras


@pytest.mark.parametrize("block_values", [3, 6, 21, 10**9])
def test_round_trip_across_load_blocks(tmp_path, rng, monkeypatch, block_values):
    # 7 rows of 3 features in blocks of 1 row, 2 rows (one row left over), 7 rows
    # (one full block) and one part block
    ds = Dataset(rng.normal(size=(7, 3)), tuple("aabbccd"), (0, 1, 0, 1, 0, 1, 0))
    out = tmp_path / "rt.csv"
    save_features(ds, out)
    monkeypatch.setattr(data, "_BLOCK_VALUES", block_values)
    back = load_features(out)
    assert back.features.tobytes() == ds.features.tobytes()
    assert back.identities == ds.identities


def test_load_peak_is_about_twice_the_feature_array(tmp_path, rng):
    ids = tuple(f"p{i // 2}" for i in range(200))
    ds = Dataset(rng.normal(size=(200, 2000)), ids, (0, 1) * 100)
    path = tmp_path / "wide.csv"
    save_features(ds, path)
    tracemalloc.start()
    try:
        back = load_features(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * ds.features.nbytes
    assert back.features.tobytes() == ds.features.tobytes()


@pytest.mark.parametrize(
    "cameras, message",
    [((0.7, 1.2), "0.7"), ((True, False), "True"), (("0", "1"), "'0'"), ((0, True), "True"),
     ((np.int64(0), np.uint8(1)), None)],
    ids=["float", "bool", "str", "bool-after-int", "numpy-int"],
)
def test_camera_labels_are_integers_not_bools(cameras, message):
    if message is None:
        ds = Dataset(np.ones((2, 1)), ("a", "b"), cameras)
        assert ds.cameras == (0, 1)
        assert all(type(c) is int for c in ds.cameras)
        return
    with pytest.raises(InputError, match=f"camera labels must be integers, got {message}"):
        Dataset(np.ones((2, 1)), ("a", "b"), cameras)


def test_dataset_rejects_nan():
    with pytest.raises(InputError, match="non-finite"):
        Dataset(np.array([[1.0], [np.nan]]), ("a", "b"), (0, 1))


def test_dataset_rejects_length_mismatch():
    with pytest.raises(InputError, match="mismatch"):
        Dataset(np.ones((3, 2)), ("a", "b"), (0, 1, 0))


def test_index_classes_single_identity():
    ds = Dataset(np.ones((4, 2)), ("z", "z", "z", "z"), (0, 1, 0, 1))
    idx = index_classes(ds, range(4))
    assert idx.classes == ("z",)
    assert idx.counts == (4,)


def test_index_classes_rejects_empty_and_duplicates():
    ds = Dataset(np.ones((4, 2)), ("a", "a", "b", "b"), (0, 1, 0, 1))
    with pytest.raises(InputError, match="empty"):
        index_classes(ds, [])
    with pytest.raises(InputError, match="duplicate"):
        index_classes(ds, [0, 0, 1])
    with pytest.raises(InputError, match="out of range"):
        index_classes(ds, [0, 9])


def test_index_classes_mixed_subset_hand_tally():
    ds = Dataset(
        np.arange(22, dtype=float).reshape(11, 2),
        ("z", "c", "a", "b", "a", "c", "d", "b", "a", "e", "z"),
        (0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1),
    )
    # subset rows 9, 1..8 at positions 0..8: 9->e, 1->c, 2->a, 3->b, 4->a,
    # 5->c, 6->d, 7->b, 8->a; the "z" rows are left out
    idx = index_classes(ds, [9, 1, 2, 3, 4, 5, 6, 7, 8])
    assert idx.classes == ("a", "b", "c", "d", "e")
    assert idx.counts == (3, 2, 2, 1, 1)
    assert idx.n_total == 9
    # one group per size, in order of that size's first class: 3 (a), 2 (b, c),
    # 1 (d, e); row k of a group's members holds each class's k-th position
    groups = [(cls.tolist(), members.tolist()) for cls, members in idx.groups]
    assert groups == [
        ([0], [[2], [4], [8]]),
        ([1, 2], [[3, 1], [7, 5]]),
        ([3, 4], [[6, 0]]),
    ]
    assert idx.sqrt_counts.tolist() == [np.sqrt(3), np.sqrt(2), np.sqrt(2), 1.0, 1.0]
    assert idx.weights.tolist() == [3 / 9, 2 / 9, 2 / 9, 1 / 9, 1 / 9]
    for a in (idx.sqrt_counts, idx.weights, *(x for g in idx.groups for x in g)):
        assert not a.flags.writeable


def _two_camera_ds(n_ids, prefix="p"):
    ids, cams, rows = [], [], []
    for i in range(n_ids):
        for cam in (0, 1):
            ids.append(f"{prefix}{i:02d}")
            cams.append(cam)
            rows.append([float(i), float(cam)])
    return Dataset(np.array(rows), tuple(ids), tuple(cams))


def test_make_split_two_identities():
    ds = _two_camera_ds(2)
    plan = make_split(ds, trial_seed=0, train_fraction=0.5)
    assert len(plan.train_ids) == 1
    assert len(plan.test_ids) == 1
    assert plan.train_ids.isdisjoint(plan.test_ids)
    assert plan.probe_camera == 0 and plan.gallery_camera == 1


def test_make_split_same_seed_identical():
    ds = _two_camera_ds(9)
    a = make_split(ds, trial_seed=5)
    b = make_split(ds, trial_seed=5)
    assert a == b


def test_make_split_seed7_matches_reference_shuffle():
    # frozen from an independent run of default_rng(7).permutation over the
    # ten sorted labels: order p08,p00,p07,p01,p03,p06,p02,p04,p05,p09
    ds = _two_camera_ds(10)
    plan = make_split(ds, trial_seed=7, train_fraction=0.5)
    assert plan.train_ids == frozenset({"p08", "p00", "p07", "p01", "p03"})
    assert plan.test_ids == frozenset({"p06", "p02", "p04", "p05", "p09"})


def test_make_split_excludes_one_camera_identity():
    ds = _two_camera_ds(3)
    lonely = Dataset(
        np.vstack([ds.features, [[9.0, 9.0]]]),
        ds.identities + ("loner",),
        ds.cameras + (1,),
    )
    with pytest.warns(UserWarning, match="loner"):
        plan = make_split(lonely, trial_seed=1)
    assert "loner" not in plan.train_ids | plan.test_ids


def test_eligible_identities_sorted_groups():
    # "g*" appear only in the gallery camera 1, "p1" only in the probe camera 0,
    # "c2" only in a third camera; "b*" in both, one of them also in camera 2
    ids = ("g2", "b3", "p1", "b1", "g1", "b3", "c2", "b1", "b2", "b2", "g1", "b2")
    cams = (1, 0, 0, 1, 1, 1, 2, 0, 0, 1, 1, 2)
    ds = Dataset(np.arange(24.0).reshape(12, 2), ids, cams)
    assert eligible_identities(ds, 0, 1) == (["b1", "b2", "b3"], ["c2", "g1", "g2", "p1"])
    assert eligible_identities(ds, 1, 2) == (["b2"], ["b1", "b3", "c2", "g1", "g2", "p1"])


def test_make_split_rejects_bad_fraction_and_tiny_sets():
    ds = _two_camera_ds(4)
    with pytest.raises(InputError, match="train_fraction"):
        make_split(ds, 0, train_fraction=1.5)
    with pytest.raises(InputError, match="no test"):
        make_split(ds, 0, train_fraction=0.99)
    with pytest.raises(InputError, match="seed must be non-negative"):
        make_split(ds, -1)
    one_cam = Dataset(np.ones((4, 2)), ("a", "a", "b", "b"), (0, 0, 0, 0))
    with pytest.raises(InputError, match="2 cameras"):
        make_split(one_cam, 0)


@pytest.mark.parametrize(
    "seed, message",
    [(-1, "seed must be non-negative, got -1"), (1.5, "seed must be an integer, got 1.5"),
     (True, "seed must be an integer, got True")],
    ids=["negative", "float", "bool"],
)
def test_trial_seed_is_a_non_negative_integer(seed, message):
    with pytest.raises(InputError, match=message):
        SplitPlan(frozenset({"a"}), frozenset({"b"}), seed, 0, 1)
    with pytest.raises(InputError, match=message):
        make_split(_two_camera_ds(4), seed)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_make_split_pure_function(seed):
    ds = _two_camera_ds(7)
    assert make_split(ds, seed) == make_split(ds, seed)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_index_counts_sum_to_subset_size(data):
    ds = _two_camera_ds(6)
    subset = data.draw(
        st.lists(st.integers(0, ds.n_samples - 1), min_size=1, max_size=ds.n_samples, unique=True)
    )
    idx = index_classes(ds, subset)
    assert sum(idx.counts) == len(subset)
    flat = sorted(pos for _, members in idx.groups for pos in members.ravel().tolist())
    assert flat == list(range(len(subset)))
    for classes, members in idx.groups:
        assert all(idx.counts[c] == len(members) for c in classes.tolist())
