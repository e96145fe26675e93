import numpy as np
import pytest

from clusteralign.losses import clustering_loss, cross_entropy, PseudoLabeledBatch
from clusteralign.network import (
    DomainError,
    Network,
    NetworkSpec,
    ShapeError,
    backward,
    forward,
    init_network,
    init_optimizer,
    reverse_gradient,
    sgd_step,
)
from clusteralign.seeding import seeded_rng

from helpers import finite_diff_check, kink_free_instance, margin_safe_labels


def test_zero_network_is_uniform():
    spec = NetworkSpec((3, 2))
    net = init_network(spec, 0)
    net = Network(spec, tuple(np.zeros_like(w) for w in net.weights), net.biases)
    trace = forward(net, np.ones((4, 3)), mode="eval")
    assert np.allclose(trace.probabilities, 0.5)


def test_forward_deterministic_bitwise():
    net, x, seed = kink_free_instance(0, dropout=0.4)
    t1 = forward(net, x, "train", seed)
    t2 = forward(net, x, "train", seed)
    assert all(np.array_equal(a, b) for a, b in zip(t1.pre_activations, t2.pre_activations))
    assert np.array_equal(t1.probabilities, t2.probabilities)
    assert all(np.array_equal(a, b) for a, b in zip(t1.masks, t2.masks))


def test_probability_rows_sum_to_one():
    rng = seeded_rng(1)
    spec = NetworkSpec((5, 7, 6, 4))
    net = init_network(spec, 3)
    x = rng.normal(size=(12, 5)) * 10.0
    trace = forward(net, x, mode="eval")
    assert np.all(np.abs(trace.probabilities.sum(axis=1) - 1.0) < 1e-9)


def test_eval_mode_has_no_dropout():
    spec = NetworkSpec((3, 8, 2), dropout_rate=0.5)
    net = init_network(spec, 5)
    x = seeded_rng(2).normal(size=(6, 3))
    t1 = forward(net, x, mode="eval", noise_seed=1)
    t2 = forward(net, x, mode="eval", noise_seed=99)
    assert np.array_equal(t1.probabilities, t2.probabilities)
    assert t1.masks is None


def test_dropout_masks_are_inverted():
    spec = NetworkSpec((3, 64, 2), dropout_rate=0.25)
    net = init_network(spec, 5)
    trace = forward(net, np.ones((2, 3)), mode="train", noise_seed=7)
    values = np.unique(trace.masks[0])
    assert set(values).issubset({0.0, 1.0 / 0.75})


def test_forward_error_contracts():
    net = init_network(NetworkSpec((3, 2)), 0)
    with pytest.raises(ShapeError):
        forward(net, np.zeros((2, 4)))
    with pytest.raises(DomainError):
        forward(net, np.array([[np.nan, 0.0, 1.0]]))


def test_weight_init_bounds_and_zero_biases():
    spec = NetworkSpec((4, 6, 3))
    net = init_network(spec, 11)
    for w, (fan_in, fan_out) in zip(net.weights, ((4, 6), (6, 3))):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= s)
    assert all(np.all(b == 0.0) for b in net.biases)
    again = init_network(spec, 11)
    assert all(np.array_equal(a, b) for a, b in zip(net.weights, again.weights))


def test_backward_zero_upstream_is_zero():
    net, x, seed = kink_free_instance(3)
    trace = forward(net, x, "train", seed)
    grads = backward(net, trace, np.zeros_like(trace.probabilities), "probabilities")
    assert all(np.all(g == 0.0) for g in grads.d_weights)
    assert all(np.all(g == 0.0) for g in grads.d_biases)


@pytest.mark.parametrize("entry", ["probabilities", "logits", "features"])
def test_backward_linearity(entry):
    net, x, seed = kink_free_instance(4, dropout=0.3)
    trace = forward(net, x, "train", seed)
    shape = trace.probabilities.shape if entry == "probabilities" else trace.features.shape
    rng = seeded_rng(9)
    g1 = rng.normal(size=shape)
    g2 = rng.normal(size=shape)
    combined = backward(net, trace, g1 + g2, entry)
    separate = backward(net, trace, g1, entry) + backward(net, trace, g2, entry)
    for a, b in zip(combined.d_weights, separate.d_weights):
        assert np.all(np.abs(a - b) < 1e-10)
    for a, b in zip(combined.d_biases, separate.d_biases):
        assert np.all(np.abs(a - b) < 1e-10)


def test_backward_shape_errors():
    net, x, seed = kink_free_instance(5)
    trace = forward(net, x, "train", seed)
    with pytest.raises(ShapeError):
        backward(net, trace, np.zeros((1, 1)), "probabilities")
    with pytest.raises(ValueError):
        backward(net, trace, np.zeros_like(trace.probabilities), "nonsense")


def test_reverse_gradient_examples():
    assert np.all(reverse_gradient(np.ones((2, 2)), 0.0) == 0.0)
    assert np.array_equal(reverse_gradient(np.array([[2.0, -3.0]]), 1.0), [[-2.0, 3.0]])
    g = seeded_rng(4).normal(size=(3, 5))
    assert np.all(np.abs(reverse_gradient(g, 0.5) + 0.5 * g) < 1e-12)
    with pytest.raises(ValueError):
        reverse_gradient(g, -1.0)


def test_sgd_zero_grads_is_identity():
    net = init_network(NetworkSpec((3, 4, 2)), 0)
    opt = init_optimizer(net)
    grads = backward(net, forward(net, np.ones((2, 3))), np.zeros((2, 2)), "probabilities")
    new_net, _ = sgd_step(net, opt, grads, 0.1)
    assert all(np.array_equal(a, b) for a, b in zip(net.weights, new_net.weights))


def test_sgd_momentum_zero_is_plain_descent():
    from clusteralign.network import GradientSet

    net = init_network(NetworkSpec((2, 2)), 1)
    opt = init_optimizer(net, momentum=0.0)
    g = seeded_rng(5).normal(size=(2, 2))
    grads = GradientSet((g,), (np.zeros(2),), None)
    new_net, _ = sgd_step(net, opt, grads, 0.05)
    assert np.allclose(new_net.weights[0] - net.weights[0], -0.05 * g)


def test_sgd_momentum_two_steps():
    # With constant gradient g and momentum 0.9, the second-step delta is
    # -lr * (0.9*g + g) = -lr * 1.9 * g.
    from clusteralign.network import GradientSet

    net = init_network(NetworkSpec((2, 2)), 1)
    opt = init_optimizer(net, momentum=0.9)
    g = seeded_rng(6).normal(size=(2, 2))
    grads = GradientSet((g,), (np.zeros(2),), None)
    net1, opt1 = sgd_step(net, opt, grads, 0.01)
    net2, _ = sgd_step(net1, opt1, grads, 0.01)
    assert np.allclose(net2.weights[0] - net1.weights[0], -0.01 * 1.9 * g, atol=1e-15)


def test_finite_diff_linear_loss_is_exact():
    from clusteralign.network import GradientSet

    net = init_network(NetworkSpec((3, 4, 2)), 2)

    def loss_fn(candidate):
        return sum(float(w.sum()) for w in candidate.weights) + sum(
            float(b.sum()) for b in candidate.biases
        )

    grads = GradientSet(
        tuple(np.ones_like(w) for w in net.weights),
        tuple(np.ones_like(b) for b in net.biases),
        None,
    )
    assert finite_diff_check(net, loss_fn, grads, h=1e-5) <= 1e-10


def test_finite_diff_cross_entropy():
    net, x, seed = kink_free_instance(7, dropout=0.2)
    y = seeded_rng(8).integers(2, size=x.shape[0])
    trace = forward(net, x, "train", seed)
    _, d_logits = cross_entropy(trace.probabilities, y)
    grads = backward(net, trace, d_logits, "logits")

    def loss_fn(candidate):
        probs = forward(candidate, x, "train", seed).probabilities
        return cross_entropy(probs, y)[0]

    assert finite_diff_check(net, loss_fn, grads, h=1e-5, seed=1) <= 1e-4


def test_finite_diff_clustering_loss_active_margin():
    # Pairwise distances ignore common feature shifts, so final-layer bias
    # gradients are exactly zero; h = 1e-3 keeps difference-quotient noise
    # on those coordinates below the 1e-8 relative-error floor.
    net, x, seed = kink_free_instance(9, sizes=(3, 6, 3), guard=5e-2)
    trace = forward(net, x, "train", seed)
    labels = margin_safe_labels(trace.features, seeded_rng(10), 3, margin=3.0,
                                squared=True, guard=0.15)
    batch = PseudoLabeledBatch(trace.features, labels, 3)
    loss, d_feats = clustering_loss(batch, 3.0)
    assert loss > 0.0
    grads = backward(net, trace, d_feats, "features")

    def loss_fn(candidate):
        feats = forward(candidate, x, "train", seed).features
        b = PseudoLabeledBatch(feats, labels, 3)
        return clustering_loss(b, 3.0)[0]

    assert finite_diff_check(net, loss_fn, grads, h=1e-3, seed=2) <= 1e-4


def test_penultimate_tap_backward_matches_finite_differences():
    net, x, seed = kink_free_instance(12, sizes=(4, 6, 5, 3), feature_tap="penultimate")
    trace = forward(net, x, "train", seed)
    assert trace.features.shape == (x.shape[0], 5)
    rng = seeded_rng(13)
    probe = rng.normal(size=trace.features.shape)
    grads = backward(net, trace, probe, "features")

    def loss_fn(candidate):
        feats = forward(candidate, x, "train", seed).features
        return float((feats * probe).sum())

    assert finite_diff_check(net, loss_fn, grads, h=1e-5, seed=3) <= 1e-4


def test_sigmoid_head_backward_matches_finite_differences():
    net, x, seed = kink_free_instance(14, sizes=(3, 6, 1), head="sigmoid")
    trace = forward(net, x, "train", seed)
    assert trace.probabilities.shape == (x.shape[0], 1)
    assert np.all((trace.probabilities > 0) & (trace.probabilities < 1))
    probe = seeded_rng(15).normal(size=trace.probabilities.shape)
    grads = backward(net, trace, probe, "probabilities")

    def loss_fn(candidate):
        probs = forward(candidate, x, "train", seed).probabilities
        return float((probs * probe).sum())

    assert finite_diff_check(net, loss_fn, grads, h=1e-5, seed=4) <= 1e-4


def test_spec_validation():
    with pytest.raises(ValueError):
        NetworkSpec((3,))
    with pytest.raises(ValueError):
        NetworkSpec((3, 1))  # softmax head needs >= 2 outputs
    with pytest.raises(ValueError):
        NetworkSpec((3, 2), dropout_rate=1.0)
    with pytest.raises(ValueError):
        NetworkSpec((3, 2), activation="selu")
    with pytest.raises(ValueError):
        NetworkSpec((3, 2), head="sigmoid")
    NetworkSpec((3, 1), head="sigmoid")
