import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from clusteralign.cli import build_dataset, build_train_config, resolve_config
from clusteralign.evaluate import (
    cluster_accuracy,
    jsd_proxy,
    kmeans_best,
    selection_rate,
    snapshot,
)
from clusteralign.seeding import seeded_rng
from clusteralign.trainer import init_train_state

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_snapshot_allocates_no_pairwise_buffers():
    # The imbalanced preset evaluates 1100 rows per domain: one n x n
    # float64 buffer alone would take 9.2 MiB. The bound also leaves no
    # room for the traces of both student passes and of the critic pass
    # to live at once, nor for two of the loss kernel's 512 KiB tiles.
    for preset in ("imbalanced", "multimode"):
        resolved = resolve_config(json.loads((CONFIGS / f"{preset}.json").read_text()))
        cfg = build_train_config(resolved, 0)
        ds = build_dataset(resolved, 0)
        state = init_train_state(cfg, ds)
        tracemalloc.start()
        try:
            snapshot(state, cfg, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20, (preset, peak)


class TestKmeans:
    def test_k_equals_n_zero_inertia(self):
        rng = seeded_rng(2)
        pts = rng.normal(size=(6, 2))
        assignments = kmeans_best(pts, k=6, seed=0, restarts=1)
        assert len(set(assignments.tolist())) == 6

    def test_two_separated_blobs(self):
        rng = seeded_rng(3)
        blob_a = rng.normal(size=(30, 2)) * 0.1
        blob_b = rng.normal(size=(30, 2)) * 0.1 + 50.0
        pts = np.vstack([blob_a, blob_b])
        assignments = kmeans_best(pts, k=2, seed=1, restarts=1)
        assert len(set(assignments[:30].tolist())) == 1
        assert len(set(assignments[30:].tolist())) == 1
        assert assignments[0] != assignments[30]

    def test_features_too_large_raise_floating_point_error(self):
        # Spread 1e6 about a point near 6e19: the Gram-form scores cancel
        # and a Lloyd step raises the inertia.
        pts = np.array([6e19, -3e19]) + 1e6 * seeded_rng(30).normal(size=(200, 2))
        with pytest.raises(FloatingPointError, match="inertia increased"):
            kmeans_best(pts, 2, seed=0)
        # The k-means++ weights of 100 points 2.8e153 apart overflow their sum.
        pts = np.full((100, 2), 1e153)
        pts[::2] *= -1.0
        with pytest.raises(FloatingPointError, match="overflow"):
            kmeans_best(pts, 2, seed=0)

    def test_coincident_points_take_the_zero_distance_seeding(self):
        # Once the first center is drawn every squared distance is zero, so
        # k-means++ draws each further center uniformly.
        pts = np.full((8, 2), 1.5)
        assignments = kmeans_best(pts, k=3, seed=0, restarts=2)
        assert assignments.shape == (8,)
        assert np.issubdtype(assignments.dtype, np.integer)
        assert np.all((assignments >= 0) & (assignments < 3))
        assert np.array_equal(assignments, kmeans_best(pts, k=3, seed=0, restarts=2))

    def test_deterministic(self):
        rng = seeded_rng(4)
        pts = rng.normal(size=(40, 3))
        assert np.array_equal(kmeans_best(pts, 4, seed=9, restarts=1),
                              kmeans_best(pts, 4, seed=9, restarts=1))

    def test_best_of_restarts_not_worse(self):
        rng = seeded_rng(5)
        pts = np.vstack([rng.normal(size=(20, 2)) + c for c in ((0, 0), (8, 0), (0, 8))])

        def inertia_of(assignments):
            total = 0.0
            for c in np.unique(assignments):
                members = pts[assignments == c]
                total += ((members - members.mean(axis=0)) ** 2).sum()
            return total

        single = inertia_of(kmeans_best(pts, 3, seed=0, restarts=1))
        best = inertia_of(kmeans_best(pts, 3, seed=0, restarts=5))
        assert best <= single + 1e-9


class TestClusterAccuracy:
    def test_pure_clusters(self):
        assert cluster_accuracy([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_majority_rule_hand_case(self):
        # Cluster 0 holds labels {0,0,1}, cluster 1 holds {1}: 3 of 4 right.
        assert cluster_accuracy([0, 0, 0, 1], [0, 0, 1, 1]) == 0.75

    def test_single_cluster_majority_tie(self):
        assert cluster_accuracy([0, 0, 0, 0], [0, 0, 1, 1]) == 0.5

    def test_lower_bounded_by_majority_class(self):
        rng = seeded_rng(6)
        labels = rng.integers(2, size=50)
        assignments = rng.integers(3, size=50)
        majority = max(np.bincount(labels)) / 50
        assert cluster_accuracy(assignments, labels) >= majority - 1e-12

    def test_permutation_invariance(self):
        rng = seeded_rng(7)
        labels = rng.integers(3, size=30)
        assignments = rng.integers(4, size=30)
        perm = rng.permutation(30)
        assert cluster_accuracy(assignments, labels) == cluster_accuracy(
            assignments[perm], labels[perm]
        )

    def test_matches_brute_force_majority_count(self):
        # Cluster ids drawn from 0..11 with gaps, and clusters where two
        # labels tie for the majority.
        gaps = ties = 0
        for case in range(40):
            rng = seeded_rng(8, case)
            n = int(rng.integers(1, 30))
            assignments = rng.choice(12, size=4, replace=False)[rng.integers(4, size=n)]
            labels = rng.integers(3, size=n)
            correct = 0
            for c in set(assignments.tolist()):
                members = labels[assignments == c].tolist()
                counts = sorted((members.count(y) for y in set(members)), reverse=True)
                correct += counts[0]
                ties += len(counts) > 1 and counts[0] == counts[1]
            gaps += assignments.max() + 1 > len(set(assignments.tolist()))
            assert cluster_accuracy(assignments, labels) == correct / n
        assert gaps and ties


class TestJsdProxy:
    def test_uninformative_critic_is_zero(self):
        l_d = 2.0 * np.log(0.5)
        assert jsd_proxy(l_d) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_critic_approaches_log2(self):
        eps = 1e-12
        l_d = np.log(1.0 - eps) + np.log(1.0 - eps)
        assert jsd_proxy(l_d) == pytest.approx(np.log(2.0), abs=1e-9)

    def test_monotone_in_l_d(self):
        values = np.linspace(-3.0, 0.0, 25)
        proxies = [jsd_proxy(v) for v in values]
        assert all(a < b for a, b in zip(proxies, proxies[1:]))


class TestSelectionRate:
    def test_all_confident(self):
        assert selection_rate(np.ones(5), 0.9) == 1.0

    def test_boundary_is_strict(self):
        assert selection_rate(np.full(5, 0.9), 0.9) == 0.0

    def test_hand_case(self):
        assert selection_rate([0.95, 0.5, 0.99, 0.1], 0.9) == 0.5
