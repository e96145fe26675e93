import numpy as np
import pytest

from clusteralign.kernels import stacked_margin_loss
from clusteralign.losses import (
    alignment_loss,
    clustering_loss,
    cross_entropy,
    domain_adversarial_loss,
    objective,
)
from clusteralign.seeding import seeded_rng
from clusteralign.trainer import TrainConfig

from helpers import brute_force_alignment, brute_force_clustering, total_objective


def batch(features, labels):
    return np.asarray(features, dtype=np.float64), np.asarray(labels)


# Two rows each: one label short, and float labels that an int64 cast would
# truncate to [0, 1].
BAD_LABELS = pytest.mark.parametrize("labels", [[0], [0.7, 1.2]], ids=["short", "float"])


@BAD_LABELS
def test_clustering_loss_needs_one_integer_label_per_row(labels):
    with pytest.raises(ValueError, match="^one integer label per feature row required$"):
        clustering_loss(*batch(np.zeros((2, 2)), labels), 3.0)


@BAD_LABELS
@pytest.mark.parametrize("domain", ["source", "target"])
def test_alignment_loss_needs_one_integer_label_per_row(labels, domain):
    good, bad = batch(np.zeros((2, 2)), [0, 1]), batch(np.zeros((2, 2)), labels)
    pair = (*bad, *good) if domain == "source" else (*good, *bad)
    with pytest.raises(ValueError, match="^one integer label per feature row required$"):
        alignment_loss(*pair, 2)


@pytest.mark.parametrize("labels", [[0, 2, 1], [0, -1, 1]], ids=["past-classes", "negative"])
@pytest.mark.parametrize("domain", ["source", "target"])
def test_alignment_loss_needs_labels_in_range(labels, domain):
    good, bad = batch(np.zeros((3, 2)), [0, 1, 1]), batch(np.zeros((3, 2)), labels)
    pair = (*bad, *good) if domain == "source" else (*good, *bad)
    with pytest.raises(ValueError, match=r"^labels must lie in \[0, num_classes\)$"):
        alignment_loss(*pair, 2)


class TestCrossEntropy:
    def test_uniform_is_log2(self):
        loss, _ = cross_entropy(np.full((5, 2), 0.5), np.zeros(5, int))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_one_hot_correct_is_zero(self):
        p = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, d_logits = cross_entropy(p, np.array([0, 1]))
        assert loss == 0.0
        assert np.all(d_logits == 0.0)

    def test_hand_case(self):
        loss, d_logits = cross_entropy(np.array([[0.8, 0.2]]), np.array([0]))
        assert loss == pytest.approx(-np.log(0.8), abs=1e-12)
        assert np.allclose(d_logits, [[-0.2, 0.2]], atol=1e-12)

    def test_zero_probability_is_clamped(self):
        loss, d_logits = cross_entropy(np.array([[1.0, 0.0]]), np.array([1]))
        assert loss == -np.log(1e-12)
        assert np.array_equal(d_logits, [[1.0, -1.0]])


class TestClusteringLoss:
    def test_same_class_identical_features(self):
        loss, grad = clustering_loss(*batch([[1.0, 2.0], [1.0, 2.0]], [0, 0]), 3.0)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_margin_inactive_beyond_m(self):
        loss, _ = clustering_loss(*batch([[0.0, 0.0], [0.0, 2.0]], [0, 1]), 3.0)
        assert loss == 0.0

    def test_hand_case_active_margin(self):
        # Ordered pairs (1,2) and (2,1) each contribute max(0, 3-1) = 2;
        # loss = 4 / 2^2 = 1.0.
        loss, _ = clustering_loss(*batch([[0.0, 0.0], [1.0, 0.0]], [0, 1]), 3.0)
        assert loss == pytest.approx(1.0, abs=1e-12)

    # The case ids name the distance the loss uses: squared euclidean.
    @pytest.mark.parametrize("seed", range(10), ids=lambda seed: f"{seed}-sq_euclidean")
    def test_matches_brute_force(self, seed):
        rng = seeded_rng(42, seed)
        n = int(rng.integers(2, 33))
        d = int(rng.integers(1, 9))
        feats = rng.normal(size=(n, d))
        labels = rng.integers(3, size=n)
        loss, _ = clustering_loss(*batch(feats, labels), 2.5)
        assert loss == pytest.approx(brute_force_clustering(feats, labels, 2.5), abs=1e-10)

    @pytest.mark.parametrize("margin", [0.0, -1.0])
    def test_margin_must_be_positive(self, margin):
        with pytest.raises(ValueError, match="^margin must be positive$"):
            clustering_loss(*batch([[0.0, 0.0], [1.0, 0.0]], [0, 1]), margin)

    def test_gradient_flag_is_keyword_only(self):
        # A stale positional metric name must not pass for a truthy flag.
        with pytest.raises(TypeError):
            clustering_loss(*batch([[0.0, 0.0], [1.0, 0.0]], [0, 1]), 3.0, "euclidean")

    def test_permutation_symmetry(self):
        rng = seeded_rng(7)
        feats = rng.normal(size=(12, 4))
        labels = rng.integers(2, size=12)
        perm = rng.permutation(12)
        a, _ = clustering_loss(*batch(feats, labels), 3.0)
        b, _ = clustering_loss(*batch(feats[perm], labels[perm]), 3.0)
        assert a == pytest.approx(b, abs=1e-10)

    @pytest.mark.parametrize("seed", [8], ids=["sq_euclidean"])
    def test_gradient_matches_central_differences(self, seed):
        rng = seeded_rng(seed)
        feats = rng.normal(size=(6, 3))
        labels = rng.integers(2, size=6)
        _, grad = clustering_loss(*batch(feats, labels), 3.0)
        h = 1e-6
        for i in range(feats.shape[0]):
            for j in range(feats.shape[1]):
                up = feats.copy()
                up[i, j] += h
                down = feats.copy()
                down[i, j] -= h
                numeric = (
                    clustering_loss(*batch(up, labels), 3.0)[0]
                    - clustering_loss(*batch(down, labels), 3.0)[0]
                ) / (2 * h)
                assert grad[i, j] == pytest.approx(numeric, abs=1e-6)


class TestAlignmentLoss:
    def test_identical_means_zero(self):
        src = batch([[1.0, 0.0], [3.0, 0.0]], [0, 0])
        tgt = batch([[2.0, 0.0]], [0])
        loss, d_src, d_tgt = alignment_loss(*src, *tgt, 2)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(d_src, 0.0) and np.allclose(d_tgt, 0.0)

    def test_hand_computed_means(self):
        src = batch([[0.0, 0.0], [2.0, 0.0]], [0, 0])
        tgt = batch([[0.0, 0.0]], [0])
        loss, _, _ = alignment_loss(*src, *tgt, 2)
        assert loss == pytest.approx(1.0, abs=1e-12)

    def test_absent_class_removed(self):
        # Class 1 is missing from the target batch, so the mean runs over
        # the single co-present class and the class-0 term (1.0) stands.
        src = batch([[0.0, 0.0], [2.0, 0.0], [9.0, 9.0]], [0, 0, 1])
        tgt = batch([[0.0, 0.0]], [0])
        loss, d_src, _ = alignment_loss(*src, *tgt, 2)
        assert loss == pytest.approx(1.0, abs=1e-12)
        assert np.all(d_src[2] == 0.0)

    def test_no_common_class_is_zero(self):
        src = batch([[1.0, 1.0]], [0])
        tgt = batch([[5.0, 5.0]], [1])
        loss, d_src, d_tgt = alignment_loss(*src, *tgt, 2)
        assert loss == 0.0
        assert np.all(d_src == 0.0) and np.all(d_tgt == 0.0)
        assert not np.signbit(d_src).any() and not np.signbit(d_tgt).any()

    def test_stacked_seeds_match_each_seed_alone(self):
        # The second seed shares no class between its batches.
        rng = seeded_rng(101)
        sf, tf = rng.normal(size=(2, 6, 3)), rng.normal(size=(2, 5, 3))
        sl = np.array([[0, 1, 2, 0, 1, 1], [0, 0, 0, 0, 0, 0]])
        tl = np.array([[2, 2, 1, 0, 0], [1, 2, 1, 2, 2]])
        stacked = alignment_loss(*batch(sf, sl), *batch(tf, tl), 3)
        for i in range(2):
            alone = alignment_loss(*batch(sf[i], sl[i]), *batch(tf[i], tl[i]), 3)
            for grouped, single in zip(stacked, alone):
                assert np.asarray(grouped[i]).tobytes() == np.asarray(single).tobytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_oracle_and_nonnegative(self, seed):
        rng = seeded_rng(100, seed)
        ns, nt = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        d = int(rng.integers(1, 6))
        sf, tf = rng.normal(size=(ns, d)), rng.normal(size=(nt, d))
        sl, tl = rng.integers(3, size=ns), rng.integers(3, size=nt)
        loss, _, _ = alignment_loss(*batch(sf, sl), *batch(tf, tl), 3)
        assert loss >= 0.0
        assert loss == pytest.approx(brute_force_alignment(sf, sl, tf, tl, 3), abs=1e-10)

    def test_quadratic_scaling(self):
        rng = seeded_rng(9)
        sf, tf = rng.normal(size=(10, 3)), rng.normal(size=(8, 3))
        sl, tl = rng.integers(2, size=10), rng.integers(2, size=8)
        base, _, _ = alignment_loss(*batch(sf, sl), *batch(tf, tl), 2)
        scaled, _, _ = alignment_loss(*batch(3.0 * sf, sl), *batch(3.0 * tf, tl), 2)
        assert scaled == pytest.approx(9.0 * base, rel=1e-12)

    def test_within_class_order_invariance(self):
        rng = seeded_rng(10)
        sf = rng.normal(size=(6, 2))
        sl = np.array([0, 0, 0, 1, 1, 1])
        tgt = batch(rng.normal(size=(4, 2)), [0, 1, 0, 1])
        a, _, _ = alignment_loss(*batch(sf, sl), *tgt, 2)
        perm = np.array([2, 0, 1, 5, 3, 4])
        b, _, _ = alignment_loss(*batch(sf[perm], sl[perm]), *tgt, 2)
        assert a == pytest.approx(b, abs=1e-12)

    def test_gradients_match_central_differences(self):
        rng = seeded_rng(11)
        sf, tf = rng.normal(size=(5, 3)), rng.normal(size=(6, 3))
        sl, tl = rng.integers(2, size=5), rng.integers(2, size=6)
        _, d_src, d_tgt = alignment_loss(*batch(sf, sl), *batch(tf, tl), 2)
        h = 1e-6
        for arr, grad, other_first in ((sf, d_src, True), (tf, d_tgt, False)):
            for i in range(arr.shape[0]):
                for j in range(arr.shape[1]):
                    up, down = arr.copy(), arr.copy()
                    up[i, j] += h
                    down[i, j] -= h
                    if other_first:
                        lu = alignment_loss(*batch(up, sl), *batch(tf, tl), 2)[0]
                        ld = alignment_loss(*batch(down, sl), *batch(tf, tl), 2)[0]
                    else:
                        lu = alignment_loss(*batch(sf, sl), *batch(up, tl), 2)[0]
                        ld = alignment_loss(*batch(sf, sl), *batch(down, tl), 2)[0]
                    assert grad[i, j] == pytest.approx((lu - ld) / (2 * h), abs=1e-6)


class TestDomainAdversarialLoss:
    def test_uninformative_critic(self):
        loss, _, _, n = domain_adversarial_loss(
            np.full(4, 0.5), np.full(4, 0.5), np.ones(4), 0.9
        )
        assert loss == pytest.approx(-2.0 * np.log(2.0), abs=1e-12)
        assert n == 4

    def test_empty_selection(self):
        loss, _, d_tgt, n = domain_adversarial_loss(
            np.full(3, 0.5), np.full(3, 0.5), np.full(3, 0.9), 0.9
        )
        assert n == 0
        assert np.all(d_tgt == 0.0)
        assert loss == pytest.approx(np.log(0.5), abs=1e-12)

    def test_hand_case(self):
        loss, _, _, n = domain_adversarial_loss(
            np.array([0.8, 0.8]), np.array([0.3]), np.array([0.95]), 0.9
        )
        assert n == 1
        assert loss == pytest.approx(np.log(0.8) + np.log(0.7), abs=1e-12)

    @pytest.mark.parametrize("threshold", [-0.1, 1.5])
    def test_rejects_a_threshold_outside_the_unit_interval(self, threshold):
        with pytest.raises(ValueError, match=r"^threshold must lie in \[0, 1\]$"):
            domain_adversarial_loss(np.full(2, 0.5), np.full(2, 0.5), np.ones(2), threshold)

    def test_threshold_zero_reduces_to_unfiltered(self):
        rng = seeded_rng(12)
        c_src = rng.uniform(0.1, 0.9, size=6)
        c_tgt = rng.uniform(0.1, 0.9, size=5)
        conf = rng.uniform(0.01, 1.0, size=5)
        filtered = domain_adversarial_loss(c_src, c_tgt, conf, 0.0)
        unfiltered = domain_adversarial_loss(c_src, c_tgt, np.ones(5), 0.0)
        assert filtered[0] == pytest.approx(unfiltered[0], abs=1e-12)
        assert filtered[3] == 5

    def test_gradients_match_central_differences(self):
        rng = seeded_rng(13)
        c_src = rng.uniform(0.2, 0.8, size=4)
        c_tgt = rng.uniform(0.2, 0.8, size=4)
        conf = np.array([0.95, 0.5, 0.99, 0.1])
        _, d_src, d_tgt, _ = domain_adversarial_loss(c_src, c_tgt, conf, 0.9)
        h = 1e-7
        for arr, grad, is_src in ((c_src, d_src, True), (c_tgt, d_tgt, False)):
            for i in range(len(arr)):
                up, down = arr.copy(), arr.copy()
                up[i] += h
                down[i] -= h
                if is_src:
                    lu = domain_adversarial_loss(up, c_tgt, conf, 0.9)[0]
                    ld = domain_adversarial_loss(down, c_tgt, conf, 0.9)[0]
                else:
                    lu = domain_adversarial_loss(c_src, up, conf, 0.9)[0]
                    ld = domain_adversarial_loss(c_src, down, conf, 0.9)[0]
                assert grad[i] == pytest.approx((lu - ld) / (2 * h), abs=1e-5)


class TestTotalObjective:
    def test_pretraining_reduces_to_supervised(self):
        assert total_objective(0.7, 5.0, 9.0, -1.0, 0.0, 0.0) == 0.7

    def test_hand_case(self):
        assert total_objective(1.0, 2.0, 3.0, -1.0, 0.5, 0.0) == pytest.approx(3.5)

    def test_composition_identity(self):
        rng = seeded_rng(14)
        for _ in range(20):
            ly, lc, la, ld = rng.normal(size=4)
            alpha, lam = rng.uniform(0, 2, size=2)
            expected = ly + alpha * (lc + la) + lam * ld
            assert total_objective(ly, lc, la, ld, alpha, lam) == pytest.approx(
                expected, abs=1e-12
            )


def objective_inputs(rng, num_classes, seeds, rows, dim):
    """Stacked features (domain, seed, rows, dim), source probabilities,
    both domains' labels, target confidences and critic outputs."""
    feats = rng.normal(size=(2, seeds, rows, dim))
    probs = rng.dirichlet(np.ones(num_classes), size=(seeds, rows))
    labels = rng.integers(num_classes, size=(2, seeds, rows))
    conf = rng.uniform(size=(seeds, rows))
    critic_out = rng.uniform(0.1, 0.9, size=(2, seeds, rows, 1))
    return feats, probs, labels, conf, critic_out


@pytest.mark.parametrize("num_classes", [2, 200, 300])
def test_objective_narrow_labels_keep_the_kernel_bits(num_classes):
    # objective hands the kernel labels in the narrowest dtype that holds
    # every class id (uint8 below 256 classes, uint16 above): no id may wrap.
    rng = seeded_rng(16, num_classes)
    feats, probs, labels, conf, critic_out = objective_inputs(rng, num_classes, 3, 50, 4)
    labels[0, 0, :3] = (0, num_classes - 1, num_classes - 1)
    labels[1, 2, :2] = (num_classes - 1, (num_classes - 1) % 256)
    bundle, grads = objective(feats, probs, labels[0], labels[1], conf, critic_out,
                              TrainConfig())
    ref_loss, ref_grad = stacked_margin_loss(feats, labels, 3.0)
    assert bundle.l_c.tobytes() == (ref_loss[0] + ref_loss[1]).tobytes()
    assert grads.d_clustering.tobytes() == ref_grad.tobytes()

