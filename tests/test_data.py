import struct

import numpy as np
import pytest

from clusteralign.data import (
    DomainDataset,
    FormatError,
    dump_dataset_csv,
    load_idx,
    make_imbalanced_gaussians,
    make_multimode_domains,
    write_csv,
)
from clusteralign.network import DomainError, ShapeError

from helpers import iterate_batches


def write_idx_pair(tmp_path, pixels, labels, rows=2, cols=2,
                   image_magic=0x00000803, label_magic=0x00000801):
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    count = len(labels)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">iiii", image_magic, count, rows, cols))
        fh.write(bytes(pixels))
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">ii", label_magic, count))
        fh.write(bytes(labels))
    return images_path, labels_path


class TestImbalancedGaussians:
    def test_counts_and_ratio(self):
        ds = make_imbalanced_gaussians(n_major=1000, n_minor=100, seed=0)
        assert int((ds.source_y == 0).sum()) == 1000
        assert int((ds.source_y == 1).sum()) == 100
        assert int((ds.target_y_hidden == 0).sum()) == 100
        assert int((ds.target_y_hidden == 1).sum()) == 1000

    def test_degenerate_sigma_limit(self):
        ds = make_imbalanced_gaussians(n_major=50, n_minor=5, sigma=1e-9, seed=1)
        for cls, mean in ((0, (-2.0, 0.0)), (1, (2.0, 0.0))):
            pts = ds.source_x[ds.source_y == cls]
            assert np.all(np.abs(pts - np.asarray(mean)) < 1e-6)

    def test_seed_reproducibility(self):
        a = make_imbalanced_gaussians(seed=7)
        b = make_imbalanced_gaussians(seed=7)
        assert np.array_equal(a.source_x, b.source_x)
        assert np.array_equal(a.target_x, b.target_x)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            make_imbalanced_gaussians(sigma=0.0)
        with pytest.raises(ValueError):
            make_imbalanced_gaussians(n_major=0)


class TestMultimodeDomains:
    def test_source_counts(self):
        ds = make_multimode_domains(modes_per_class=2, n_per_mode=100, seed=0)
        assert int((ds.source_y == 0).sum()) == 200
        assert int((ds.source_y == 1).sum()) == 200

    def test_no_rotation_no_extra_matches_source_distribution(self):
        ds = make_multimode_domains(
            modes_per_class=2, rotation_deg=0.0, n_per_mode=200,
            sigma=0.3, seed=3, extra_mode=False,
        )
        assert ds.target_x.shape == ds.source_x.shape
        for cls in (0, 1):
            src_mean = ds.source_x[ds.source_y == cls].mean(axis=0)
            tgt_mean = ds.target_x[ds.target_y_hidden == cls].mean(axis=0)
            assert np.all(np.abs(src_mean - tgt_mean) < 0.2)

    def test_extra_mode_adds_per_class_count(self):
        ds = make_multimode_domains(modes_per_class=2, n_per_mode=50, seed=4)
        assert int((ds.target_y_hidden == 0).sum()) == 150

    def test_seed_reproducibility(self):
        a = make_multimode_domains(seed=5)
        b = make_multimode_domains(seed=5)
        assert np.array_equal(a.target_x, b.target_x)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_multimode_domains(modes_per_class=1)


class TestIterateBatches:
    def test_full_batch_is_permutation(self):
        ds = make_imbalanced_gaussians(n_major=30, n_minor=10, seed=0)
        pairs = iterate_batches(ds, 40, 40, seed=1, epoch=0)
        assert len(pairs) == 1
        assert np.array_equal(np.sort(pairs[0].source_x[:, 0]), np.sort(ds.source_x[:, 0]))
        assert np.array_equal(np.sort(pairs[0].target_indices), np.arange(40))

    def test_same_seed_epoch_reproducible(self):
        ds = make_imbalanced_gaussians(n_major=30, n_minor=10, seed=0)
        a = iterate_batches(ds, 8, 8, seed=2, epoch=3)
        b = iterate_batches(ds, 8, 8, seed=2, epoch=3)
        assert all(np.array_equal(x.source_x, y.source_x) for x, y in zip(a, b))
        assert all(np.array_equal(x.target_indices, y.target_indices) for x, y in zip(a, b))

    def test_partial_batches_dropped(self):
        ds = make_imbalanced_gaussians(n_major=8, n_minor=2, seed=0)  # 10 per domain
        pairs = iterate_batches(ds, 3, 3, seed=0, epoch=0)
        assert len(pairs) == 3
        assert all(p.source_x.shape[0] == 3 for p in pairs)

    def test_epochs_differ(self):
        ds = make_imbalanced_gaussians(n_major=30, n_minor=10, seed=0)
        a = iterate_batches(ds, 8, 8, seed=2, epoch=0)
        b = iterate_batches(ds, 8, 8, seed=2, epoch=1)
        assert not np.array_equal(a[0].target_indices, b[0].target_indices)

    def test_batch_size_validation(self):
        ds = make_imbalanced_gaussians(n_major=8, n_minor=2, seed=0)
        with pytest.raises(ValueError):
            iterate_batches(ds, 11, 3, seed=0, epoch=0)


class TestLoadIdx:
    def test_hand_built_fixture(self, tmp_path):
        images_path, labels_path = write_idx_pair(
            tmp_path, pixels=[0, 255, 128, 64, 10, 20, 30, 40], labels=[7, 3]
        )
        x, y = load_idx(images_path, labels_path, subsample=2, seed=0)
        row = x[list(y).index(7)]
        assert np.allclose(row, [0.0, 1.0, 128 / 255, 64 / 255])
        assert sorted(y.tolist()) == [3, 7]

    def test_full_subsample_is_permutation(self, tmp_path):
        images_path, labels_path = write_idx_pair(
            tmp_path, pixels=list(range(12)), labels=[0, 1, 2]
        )
        _, y = load_idx(images_path, labels_path, subsample=3, seed=5)
        assert sorted(y.tolist()) == [0, 1, 2]

    def test_magic_mismatch(self, tmp_path):
        images_path, labels_path = write_idx_pair(
            tmp_path, pixels=[0, 0, 0, 0], labels=[1], label_magic=0x00000803
        )
        with pytest.raises(FormatError, match="magic"):
            load_idx(images_path, labels_path, subsample=1, seed=0)

    def test_truncated_file_reports_offset(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">iiii", 0x00000803, 10, 2, 2) + b"\x00" * 5)
        labels_path = tmp_path / "labels.idx"
        labels_path.write_bytes(struct.pack(">ii", 0x00000801, 10) + b"\x00" * 10)
        with pytest.raises(FormatError, match="byte"):
            load_idx(path, labels_path, subsample=1, seed=0)

    def test_count_mismatch(self, tmp_path):
        images_path, labels_path = write_idx_pair(
            tmp_path, pixels=[0, 0, 0, 0], labels=[1, 2]
        )
        # 1 image declared via pixels for 2 labels: rebuild image header for 1.
        with open(images_path, "wb") as fh:
            fh.write(struct.pack(">iiii", 0x00000803, 1, 2, 2))
            fh.write(bytes([0, 0, 0, 0]))
        with pytest.raises(FormatError, match="labels"):
            load_idx(images_path, labels_path, subsample=1, seed=0)


def test_dataset_csv_dump(tmp_path):
    ds = make_imbalanced_gaussians(n_major=3, n_minor=2, seed=0)
    path = tmp_path / "dataset.csv"
    dump_dataset_csv(ds, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "domain,class,x0,x1"
    assert len(lines) == 1 + 5 + 5
    assert lines[1].startswith("source,0,")
    assert lines[-1].startswith("target,1,")


def test_write_csv_writes_floats_as_repr_and_ints_in_full(tmp_path):
    # A CSV holds each float as repr(float(v)) and each label as
    # str(int(v)); str of a .tolist() scalar must give the same text,
    # signed zero, subnormals and exponent forms included.
    floats = np.array([-0.0, 5e-324, 1e-7, 1 / 3, 1e16, 1.5e300])
    ints = np.array([0, -3, 2**53 + 1, 2**62, -2**63, 2**63 - 1], dtype=np.int64)
    path = tmp_path / "values.csv"
    write_csv(path, [f"c{i}" for i in range(6)], [floats.tolist(), ints.tolist()])
    assert path.read_text() == "\n".join([
        "c0,c1,c2,c3,c4,c5",
        ",".join(repr(float(v)) for v in floats),
        ",".join(str(int(v)) for v in ints),
    ]) + "\n"


def test_dataset_keeps_the_arrays_it_checked():
    x = [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
    ds = DomainDataset(x, [0, 1, 1], x, np.array([1, 0, 1], np.int32), 2)
    for name in ("source_x", "target_x"):
        assert isinstance(getattr(ds, name), np.ndarray)
        assert getattr(ds, name).dtype == np.float64
    for name in ("source_y", "target_y_hidden"):
        assert getattr(ds, name).dtype == np.int64
    assert ds.target_y_hidden.tolist() == [1, 0, 1]


@pytest.mark.parametrize("field, labels, match", [
    ("source_y", np.zeros(30, np.int64), r"^source_y must hold one integer label per row of "
     r"source_x \(40 rows\); got int64 of shape \(30,\)$"),
    ("target_y_hidden", np.zeros(41, np.int64), r"^target_y_hidden must hold one integer label "
     r"per row of target_x \(40 rows\); got int64 of shape \(41,\)$"),
    ("source_y", np.zeros((40, 1), np.int64), r"^source_y must hold .*; got int64 of shape "
     r"\(40, 1\)$"),
    ("source_y", np.arange(40) % 2 + 0.5, r"^source_y must hold .*; got float64 of shape "
     r"\(40,\)$"),
    ("target_y_hidden", np.full(40, 5), r"^target_y_hidden must lie in \[0, 2\)$"),
    ("source_y", np.arange(40) % 2 - 1, r"^source_y must lie in \[0, 2\)$"),
], ids=["short-source", "long-target", "2-d-source", "fractional-source", "target-past-classes",
        "negative-source"])
def test_dataset_rejects_labels_that_do_not_fit_their_domain(field, labels, match):
    x = np.zeros((40, 2))
    fields = {"source_x": x, "source_y": np.arange(40) % 2, "target_x": x,
              "target_y_hidden": np.arange(40) % 2, "num_classes": 2}
    with pytest.raises(ValueError, match=match):
        DomainDataset(**dict(fields, **{field: labels}))


def test_dataset_rejects_domains_of_different_widths():
    y = np.arange(40) % 2
    with pytest.raises(ShapeError, match="^target_x has 3 columns, source_x 2: both domains "
                                         "must share their width$"):
        DomainDataset(np.zeros((40, 2)), y, np.zeros((40, 3)), y, 2)


def test_dataset_rejects_a_source_of_one_class():
    x = np.zeros((4, 2))
    with pytest.raises(ValueError, match="^source labels must cover at least 2 classes$"):
        DomainDataset(x, np.ones(4, np.int64), x, np.array([0, 0, 1, 1]), 2)


def test_dataset_rejects_coordinates_that_are_not_a_finite_matrix():
    x, labels = np.zeros((4, 2)), np.array([0, 0, 1, 1])
    with pytest.raises(ShapeError, match=r"^source_x must be 2-D, got shape \(4,\)$"):
        DomainDataset(np.zeros(4), labels, x, labels, 2)
    x_nan = x.copy()
    x_nan[2, 1] = np.nan
    with pytest.raises(DomainError, match="^target_x contains non-finite entries$"):
        DomainDataset(x, labels, x_nan, labels, 2)


@pytest.mark.parametrize("dim", [1, 2, 784])
def test_dataset_rejects_coordinates_whose_squared_distances_overflow(dim):
    # Opposite corners of the cube [-m, m]^dim lie 4 dim m^2 apart: the
    # largest accepted m keeps that finite, and the next float is refused.
    m = float(np.sqrt(np.finfo(np.float64).max / (4 * dim)))
    labels = np.array([0, 1])
    corners = np.array([np.full(dim, m), np.full(dim, -m)])
    ds = DomainDataset(corners, labels, corners, labels, 2)
    assert np.isfinite(np.sum((ds.source_x[0] - ds.target_x[1]) ** 2))
    corners[1, -1] = np.nextafter(-m, -np.inf)
    with pytest.raises(ValueError, match="where squared distances overflow"):
        DomainDataset(corners, labels, corners[::-1], labels, 2)


def test_hidden_labels_not_used_by_generators():
    ds = make_imbalanced_gaussians(seed=0)
    assert ds.target_y_hidden.shape[0] == ds.target_x.shape[0]
