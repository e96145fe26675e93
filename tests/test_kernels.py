import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from clusteralign import kernels
from clusteralign.seeding import seeded_rng

from helpers import brute_force_clustering, brute_force_clustering_grad, module_env

REL = 1e-10


def assert_matches_oracle(feats, labels, margin, gradient=True):
    loss, grad = kernels.pairwise_margin_loss(feats, labels, margin, gradient)
    want_loss, want_grad = brute_force_clustering_grad(feats, labels, margin)
    assert abs(loss - want_loss) <= REL * abs(want_loss)
    if not gradient:
        assert grad is None
        return
    assert np.max(np.abs(grad - want_grad)) <= REL * np.max(np.abs(want_grad))


def test_backend_is_resolved():
    assert kernels.BACKEND == "numpy"


# An oracle test that takes `gradient` checks each mode as its own case:
# the Gram-form gradient mode (True) and the loss-only mode (False).
@pytest.mark.parametrize("gradient", [True, False])
def test_numpy_kernel_matches_brute_force(gradient):
    rng = seeded_rng(0)
    feats = rng.normal(size=(17, 3))
    labels = rng.integers(2, size=17).astype(np.int64)
    loss, _ = kernels.pairwise_margin_loss(feats, labels, 2.0, gradient)
    assert loss == pytest.approx(brute_force_clustering(feats, labels, 2.0), abs=1e-10)


@pytest.mark.parametrize("gradient", [True, False])
@pytest.mark.parametrize("seed", range(6))
def test_random_batches_match_oracle(seed, gradient):
    rng = seeded_rng(10, seed)
    n = int(rng.integers(2, 81))
    d = int(rng.integers(1, 17))
    feats = rng.normal(size=(n, d))
    labels = rng.integers(3, size=n)
    # A margin near the typical pair distance keeps both hinge branches busy.
    assert_matches_oracle(feats, labels, 2.0 * d, gradient)


@pytest.mark.parametrize("gradient", [True, False])
def test_coincident_pairs_match_oracle(gradient):
    rng = seeded_rng(11)
    base = rng.normal(size=(6, 3))
    feats = np.vstack([base, base[:3], base[:3]])
    # Copies of rows 0-2 with the same label, then with a different one.
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 1, 2, 0])
    assert_matches_oracle(feats, labels, 2.5, gradient)


# Label layouts the loss-only mode groups by hand: n = 1, one label, a
# class of one row, labels with gaps, three classes.
LAYOUTS = {
    "one_row": [0],
    "one_label": [1] * 9,
    "singleton_class": [0, 1, 1, 1, 1, 1, 1, 1],
    "gapped_labels": [2, 0, 2, 2, 0, 0, 2, 0, 2, 2],
    "three_classes": [2, 0, 1, 1, 0, 2, 2, 1, 0, 0, 1, 2, 2],
}


@pytest.mark.parametrize("gradient", [True, False])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_loss_only_layouts_match_oracle_and_gradient_mode(layout, gradient):
    labels = np.array(LAYOUTS[layout])
    feats = seeded_rng(15, len(labels)).normal(size=(len(labels), 3))
    assert_matches_oracle(feats, labels, 6.0, gradient)
    loss, _ = kernels.pairwise_margin_loss(feats, labels, 6.0, gradient=False)
    gram_loss, _ = kernels.pairwise_margin_loss(feats, labels, 6.0)
    assert abs(loss - gram_loss) <= 1e-12 * abs(gram_loss)


@pytest.mark.parametrize("tile", [1, 20, 200])
def test_loss_only_tiles_match_oracle(tile, monkeypatch):
    # Tiles of one pair (smaller than its 3 elements), of part of a row,
    # and of several whole rows, so that the tile loops run many times.
    monkeypatch.setattr(kernels, "_TILE", tile)
    rng = seeded_rng(18, tile)
    feats = rng.normal(size=(30, 3))
    labels = rng.integers(3, size=30)
    assert_matches_oracle(feats, labels, 6.0, gradient=False)


@pytest.mark.parametrize("dim", [2, 16])
def test_stacked_margin_loss_holds_each_matrix_alone(dim):
    # A training step's stack: (domains, seeds, rows, columns).
    rng = seeded_rng(26, dim)
    labels = rng.integers(3, size=(2, 3, 64))
    feats = rng.normal(size=(2, 3, 64, dim)) + 1.5 * labels[..., None] / np.sqrt(dim)
    loss, grad = kernels.stacked_margin_loss(feats, labels, 3.0)
    assert loss.shape == (2, 3) and grad.shape == feats.shape
    for index in np.ndindex(2, 3):
        want_loss, want_grad = kernels.pairwise_margin_loss(feats[index], labels[index], 3.0)
        assert loss[index] == want_loss
        assert grad[index].tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("shape", [(2, 3, 64, 2), (2, 1, 64, 16), (2, 3, 64, 16)])
def test_gram_product_with_a_transposed_copy_keeps_the_syrk_bits(shape):
    # stacked_margin_loss multiplies by a transposed copy to avoid numpy's
    # syrk path; at a training step's shapes the run's bytes rest on both
    # forms agreeing bit for bit.
    feats = seeded_rng(27, shape[-1]).normal(size=shape)
    want = feats @ feats.mT
    assert (feats @ np.ascontiguousarray(feats.mT)).tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_loss_only_mode_matches_gradient_mode(seed):
    rng = seeded_rng(16, seed)
    n = int(rng.integers(200, 401))
    labels = rng.integers(3, size=n)
    feats = rng.normal(size=(n, 4)) + 2.0 * labels[:, None]
    loss, grad = kernels.pairwise_margin_loss(feats, labels, 40.0, gradient=False)
    want, _ = kernels.pairwise_margin_loss(feats, labels, 40.0)
    assert grad is None
    assert abs(loss - want) <= 1e-12 * abs(want)


# Prints the loss-only value of each evaluation-sized instance in hex:
# two classes of 100 and 1000 rows around jittered centres, with spreads
# from 1e-3 to 10^-0.5, where the Gram form rounds differently at 1 and 2
# BLAS threads.
THREAD_PROBE = """
import numpy as np
from clusteralign.kernels import pairwise_margin_loss
from clusteralign.seeding import seeded_rng

for seed in range(12):
    rng = seeded_rng(17, seed)
    centres = np.array([[3.1, -2.3], [-2.9, 2.8]]) + rng.normal(scale=0.2, size=(2, 2))
    spread = 10.0 ** rng.uniform(-3.0, -0.5)
    labels = np.repeat([0, 1], [100, 1000])
    feats = centres[labels] + spread * rng.normal(size=(1100, 2))
    print(pairwise_margin_loss(feats, labels, 30.0, gradient=False)[0].hex())
"""


def test_loss_only_mode_is_independent_of_blas_threads():
    printed = [
        subprocess.run([sys.executable, "-c", THREAD_PROBE], capture_output=True, text=True,
                       check=True, env=module_env(OPENBLAS_NUM_THREADS=threads)).stdout
        for threads in ("1", "2")
    ]
    assert len(printed[0].split()) == 12
    assert printed[0] == printed[1]


@pytest.mark.parametrize("n, dim", [(1100, 2), (600, 16)])
def test_squared_loss_only_frees_each_tile_before_the_next(n, dim):
    # A 512 KiB tile of differences and its distances; two generations of
    # them alive at once would pass 1 MiB. The shapes are a snapshot's.
    rng = seeded_rng(20)
    feats = rng.normal(size=(n, dim))
    labels = rng.integers(2, size=n)
    tracemalloc.start()
    try:
        kernels.pairwise_margin_loss(feats, labels, 3.0, gradient=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def near_duplicates(offset, shared):
    """Twelve points at feature scale 30, each with a copy `offset` away;
    the first `shared` copies keep their original's label. Every other
    pair is far beyond a margin of 1."""
    rng = seeded_rng(12)
    base = 30.0 * rng.normal(size=(12, 4))
    feats = np.vstack([base, base + offset * rng.normal(size=(12, 4))])
    labels = np.concatenate([np.arange(12), np.arange(shared), 100 + np.arange(12 - shared)])
    return feats, labels


OFFSETS = [1e-12, 1e-10, 1e-8, 1e-6, 1e-4]


@pytest.mark.parametrize("gradient", [True, False])
@pytest.mark.parametrize("offset", OFFSETS)
def test_near_duplicate_pairs_match_oracle(offset, gradient):
    feats, labels = near_duplicates(offset, shared=6)
    assert_matches_oracle(feats, labels, 1.0, gradient)


@pytest.mark.parametrize("offset", OFFSETS)
def test_squared_metric_error_is_absolute(offset):
    # Squared distances stay in Gram form, accurate to a few ulps of
    # ||a||^2 + ||b||^2 per pair: a loss carried by near pairs alone is
    # only that accurate, not relatively.
    feats, labels = near_duplicates(offset, shared=12)
    loss, grad = kernels.pairwise_margin_loss(feats, labels, 1.0)
    want_loss, want_grad = brute_force_clustering_grad(feats, labels, 1.0)
    eps = np.finfo(np.float64).eps
    assert abs(loss - want_loss) <= 8 * eps * 2.0 * np.max(np.sum(feats ** 2, axis=1))
    assert np.max(np.abs(grad - want_grad)) <= 8 * eps * np.max(np.abs(feats))


@pytest.mark.parametrize("gradient", [True, False])
def test_near_duplicates_among_random_pairs_match_oracle(gradient):
    rng = seeded_rng(13)
    base = 30.0 * rng.normal(size=(20, 5))
    offsets = 10.0 ** rng.uniform(-12, -4, size=(20, 1)) * rng.normal(size=(20, 5))
    feats = np.vstack([base, base + offsets])
    labels = rng.integers(2, size=40)
    assert_matches_oracle(feats, labels, 900.0, gradient)


def test_kmeans_assign_duplicated_centers():
    rng = seeded_rng(14)
    distinct = 5.0 * rng.normal(size=(3, 4))
    centers = distinct[[0, 1, 0, 2, 1]]
    points = np.vstack([rng.normal(size=(50, 4)) + distinct[k] for k in range(3)] + [centers])
    assign, inertia = kernels.kmeans_assign(points, centers)

    explicit = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(assign, np.argmin(explicit, axis=1))
    # Ties between copies go to the lowest index: copies 2 and 4 never win.
    assert set(assign.tolist()) == {0, 1, 3}
    # Points placed on a center contribute exactly zero.
    assert assign[-5:].tolist() == [0, 1, 0, 3, 1]
    on_centers = kernels.kmeans_assign(centers, centers)[1]
    assert on_centers == 0.0
    want = sum(float(((p - centers[a]) ** 2).sum()) for p, a in zip(points, assign))
    assert inertia == pytest.approx(want, rel=1e-14)
