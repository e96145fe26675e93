import numpy as np
import pytest

from clusteralign import kernels
from clusteralign.seeding import seeded_rng

from helpers import brute_force_clustering, brute_force_clustering_grad

REL = 1e-10


def assert_matches_oracle(feats, labels, margin, squared):
    loss, grad = kernels.pairwise_margin_loss(feats, labels, margin, squared)
    want_loss, want_grad = brute_force_clustering_grad(feats, labels, margin, squared)
    assert abs(loss - want_loss) <= REL * abs(want_loss)
    assert np.max(np.abs(grad - want_grad)) <= REL * np.max(np.abs(want_grad))


def test_backend_is_resolved():
    assert kernels.BACKEND == "numpy"


@pytest.mark.parametrize("squared", [True, False])
def test_numpy_kernel_matches_brute_force(squared):
    rng = seeded_rng(0)
    feats = rng.normal(size=(17, 3))
    labels = rng.integers(2, size=17).astype(np.int64)
    loss, _ = kernels.pairwise_margin_loss(feats, labels, 2.0, squared)
    assert loss == pytest.approx(
        brute_force_clustering(feats, labels, 2.0, squared), abs=1e-10
    )


@pytest.mark.parametrize("squared", [True, False])
@pytest.mark.parametrize("seed", range(6))
def test_random_batches_match_oracle(seed, squared):
    rng = seeded_rng(10, seed)
    n = int(rng.integers(2, 81))
    d = int(rng.integers(1, 17))
    feats = rng.normal(size=(n, d))
    labels = rng.integers(3, size=n)
    # A margin near the typical pair distance keeps both hinge branches busy.
    margin = 2.0 * d if squared else float(np.sqrt(2.0 * d))
    assert_matches_oracle(feats, labels, margin, squared)


@pytest.mark.parametrize("squared", [True, False])
def test_coincident_pairs_match_oracle(squared):
    rng = seeded_rng(11)
    base = rng.normal(size=(6, 3))
    feats = np.vstack([base, base[:3], base[:3]])
    # Copies of rows 0-2 with the same label, then with a different one.
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 1, 2, 0])
    assert_matches_oracle(feats, labels, 2.5, squared)


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


@pytest.mark.parametrize("squared", [True, False])
@pytest.mark.parametrize("offset", OFFSETS)
def test_near_duplicate_pairs_match_oracle(offset, squared):
    feats, labels = near_duplicates(offset, shared=6)
    assert_matches_oracle(feats, labels, 1.0, squared)


@pytest.mark.parametrize("offset", OFFSETS)
def test_euclidean_near_pairs_alone_match_oracle(offset):
    # Only the near pairs carry loss and gradient, each gradient term a
    # unit vector that the Gram form would cancel away.
    feats, labels = near_duplicates(offset, shared=12)
    assert_matches_oracle(feats, labels, 1.0, squared=False)


@pytest.mark.parametrize("offset", OFFSETS)
def test_squared_metric_error_is_absolute(offset):
    # Squared distances stay in Gram form, accurate to a few ulps of
    # ||a||^2 + ||b||^2 per pair: a loss carried by near pairs alone is
    # only that accurate, not relatively.
    feats, labels = near_duplicates(offset, shared=12)
    loss, grad = kernels.pairwise_margin_loss(feats, labels, 1.0, True)
    want_loss, want_grad = brute_force_clustering_grad(feats, labels, 1.0, True)
    eps = np.finfo(np.float64).eps
    assert abs(loss - want_loss) <= 8 * eps * 2.0 * np.max(np.sum(feats ** 2, axis=1))
    assert np.max(np.abs(grad - want_grad)) <= 8 * eps * np.max(np.abs(feats))


@pytest.mark.parametrize("squared", [True, False])
def test_near_duplicates_among_random_pairs_match_oracle(squared):
    rng = seeded_rng(13)
    base = 30.0 * rng.normal(size=(20, 5))
    offsets = 10.0 ** rng.uniform(-12, -4, size=(20, 1)) * rng.normal(size=(20, 5))
    feats = np.vstack([base, base + offsets])
    labels = rng.integers(2, size=40)
    assert_matches_oracle(feats, labels, 900.0 if squared else 30.0, squared)


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
