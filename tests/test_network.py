import numpy as np
import pytest

from clusteralign import network as network_module
from clusteralign.losses import clustering_loss, cross_entropy
from clusteralign.network import (
    DomainError,
    GradientSet,
    Network,
    NetworkSpec,
    ShapeError,
    backward,
    forward,
    init_network,
    reduce_rows,
    reverse_gradient,
    sgd_step,
)
from clusteralign.seeding import seeded_rng

from helpers import (
    finite_diff_check,
    input_finite_diff_check,
    kink_free_instance,
    margin_safe_labels,
)


def test_zero_network_is_uniform():
    spec = NetworkSpec((3, 2))
    net = Network(spec, np.zeros(spec.num_params))
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
    t1 = forward(net, x, mode="eval", noise=1)
    t2 = forward(net, x, mode="eval", noise=99)
    assert np.array_equal(t1.probabilities, t2.probabilities)
    assert t1.masks is None


def test_dropout_masks_are_inverted():
    spec = NetworkSpec((3, 64, 2), dropout_rate=0.25)
    net = init_network(spec, 5)
    trace = forward(net, np.ones((2, 3)), mode="train", noise=7)
    values = np.unique(trace.masks[0])
    assert set(values).issubset({0.0, 1.0 / 0.75})


def test_forward_error_contracts():
    net = init_network(NetworkSpec((3, 2)), 0)
    with pytest.raises(ShapeError):
        forward(net, np.zeros((2, 4)))
    with pytest.raises(DomainError):
        forward(net, np.array([[np.nan, 0.0, 1.0]]))


def test_forward_rejects_noise_that_does_not_fit_its_slices():
    # One (domain, seed) slice of 2 rows through 4 hidden units draws 8 uniforms.
    net = init_network(NetworkSpec((3, 4, 2), dropout_rate=0.5), 0)
    x = np.ones((2, 3))
    with pytest.raises(ShapeError, match=r"^noise has shape \(1, 7\), expected \(1, 8\)$"):
        forward(net, x, "train", np.zeros((1, 7)))
    with pytest.raises(ValueError, match=r"^2 noise seeds for 1 \(domain, seed\) slices$"):
        forward(net, x, "train", (7, 8))


def test_stacked_forward_and_backward_hold_each_seed_alone():
    spec = NetworkSpec((3, 6, 4, 2), dropout_rate=0.3, feature_tap="penultimate")
    nets = [init_network(spec, seed) for seed in (1, 2)]
    x = seeded_rng(21).normal(size=(2, 5, 3))
    probe = seeded_rng(22).normal(size=(2, 5, 4))
    stacked = Network(spec, np.stack([net.params for net in nets]))
    assert all(w.shape[0] == 2 and np.shares_memory(w, stacked.params)
               for w in stacked.weights + stacked.biases)
    trace = forward(stacked, x, "train", (7, 8))
    grads = backward(stacked, trace, probe, "features")
    for i, (net, noise_seed) in enumerate(zip(nets, (7, 8))):
        alone = forward(net, x[i], "train", noise_seed)
        assert np.array_equal(trace.features[i], alone.features)
        single = backward(net, alone, probe[i], "features")
        assert np.array_equal(grads.vector[i], single.vector)
        assert np.array_equal(grads.d_input[i], single.d_input)


def test_stacked_forward_names_the_seed_of_a_non_finite_input():
    spec = NetworkSpec((3, 2))
    stacked = Network(spec, np.zeros((3, spec.num_params)))
    x = np.zeros((3, 4, 3))
    x[1, 2, 0] = np.nan
    with pytest.raises(DomainError) as err:
        forward(stacked, x)
    assert err.value.seed_index == 1
    with pytest.raises(ShapeError):
        forward(stacked, x[0])


@pytest.mark.parametrize("seeds", [0, 2], ids=["one-seed", "two-seeds"])
def test_a_domain_axis_holds_each_domain_alone(seeds):
    # A training step's batch: (domains, seeds, rows, columns), with one
    # dropout key per (domain, seed) slice, domain-major.
    spec = NetworkSpec((3, 6, 4, 2), dropout_rate=0.3, feature_tap="penultimate")
    nets = [init_network(spec, seed) for seed in (1, 2)][:seeds or 1]
    net = Network(spec, np.stack([n.params for n in nets])) if seeds else nets[0]
    lead = (seeds,) if seeds else ()
    x = seeded_rng(25).normal(size=(2, *lead, 5, 3))
    probe = seeded_rng(26).normal(size=(2, *lead, 5, 4))
    keys = tuple(range(7, 7 + x[..., 0, 0].size))
    trace = forward(net, x, "train", keys)
    grads = backward(net, trace, probe, "features")
    assert grads.vector.shape == (2, *lead, spec.num_params)
    per_domain = np.reshape(keys, (2, -1))
    for d in range(2):
        domain_keys = tuple(per_domain[d].tolist()) if seeds else int(per_domain[d, 0])
        alone = forward(net, x[d], "train", domain_keys)
        for got, want in zip(trace[d].inputs + trace[d].pre_activations + trace[d].masks,
                             alone.inputs + alone.pre_activations + alone.masks):
            assert got.tobytes() == want.tobytes()
        assert trace[d].probabilities.tobytes() == alone.probabilities.tobytes()
        single = backward(net, alone, probe[d], "features")
        assert grads.vector[d].tobytes() == single.vector.tobytes()
        assert grads.d_input[d].tobytes() == single.d_input.tobytes()


def test_a_domain_axis_error_names_the_seed():
    spec = NetworkSpec((3, 2))
    stacked = Network(spec, np.zeros((3, spec.num_params)))
    x = np.zeros((2, 3, 4, 3))
    x[1, 2, 0, 0] = np.inf
    with pytest.raises(DomainError) as err:
        forward(stacked, x)
    assert err.value.seed_index == 2
    with pytest.raises(ShapeError):
        forward(stacked, x[:, :2])


@pytest.mark.parametrize("sizes, head, tap, seeds, domains, mode", [
    ((3, 6, 4, 2), "softmax", "logits", 0, False, "eval"),
    ((3, 6, 4, 2), "softmax", "penultimate", 0, False, "train"),
    ((3, 6, 4, 2), "softmax", "penultimate", 2, False, "train"),
    ((3, 6, 4, 2), "softmax", "logits", 2, True, "train"),
    ((4, 8, 8, 1), "sigmoid", "penultimate", 0, True, "eval"),
    ((4, 8, 8, 1), "sigmoid", "logits", 3, False, "train"),
    ((3, 2), "softmax", "logits", 0, False, "train"),
    ((3, 2), "softmax", "penultimate", 2, True, "eval"),
], ids=["plain-logits", "plain-penultimate-train", "seed-axis-train", "domain-axis-train",
        "sigmoid-domain-axis", "sigmoid-seed-axis-train", "no-hidden-logits",
        "no-hidden-penultimate-domain-axis"])
def test_an_untraced_pass_holds_the_bits_of_a_traced_one(sizes, head, tap, seeds, domains, mode):
    spec = NetworkSpec(sizes, dropout_rate=0.3, feature_tap=tap, head=head)
    nets = [init_network(spec, seed) for seed in range(max(seeds, 1))]
    net = Network(spec, np.stack([n.params for n in nets])) if seeds else nets[0]
    lead = ((2,) if domains else ()) + ((seeds,) if seeds else ())
    x = seeded_rng(27).normal(size=(*lead, 5, sizes[0]))
    keys = tuple(range(7, 7 + x[..., 0, 0].size))
    traced = forward(net, x, mode, keys)
    untraced = forward(net, x, mode, keys, traced=False)
    assert untraced.inputs is None and untraced.pre_activations is None
    assert untraced.masks is None
    for got, want in ((untraced, traced), (untraced[-1], traced[-1])):
        assert got.features.shape == want.features.shape
        assert got.features.tobytes() == want.features.tobytes()
        assert got.probabilities.shape == want.probabilities.shape
        assert got.probabilities.tobytes() == want.probabilities.tobytes()


def test_backward_rejects_an_untraced_pass():
    net, x, seed = kink_free_instance(28, dropout=0.3)
    trace = forward(net, x, "train", seed, traced=False)
    with pytest.raises(ValueError, match="traced forward pass"):
        backward(net, trace, np.ones(trace.probabilities.shape), "logits")


def test_backward_without_input_gradient_keeps_the_parameter_gradient():
    net, x, seed = kink_free_instance(23, dropout=0.3)
    trace = forward(net, x, "train", seed)
    probe = seeded_rng(24).normal(size=trace.probabilities.shape)
    full = backward(net, trace, probe, "logits")
    lean = backward(net, trace, probe, "logits", input_gradient=False)
    assert lean.d_input is None
    assert np.array_equal(lean.vector, full.vector)


def test_weight_init_bounds_and_zero_biases():
    # One uniform draw in [-s, s] per weight matrix, in layer order.
    net = init_network(NetworkSpec((4, 6, 5, 3)), 11)
    rng = seeded_rng(11)
    for w, (fan_in, fan_out) in zip(net.weights, ((4, 6), (6, 5), (5, 3))):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.array_equal(w, rng.uniform(-s, s, size=(fan_in, fan_out)))
    assert all(np.all(b == 0.0) for b in net.biases)


def test_parameter_layout():
    net = init_network(NetworkSpec((4, 6, 5, 3)), 11)
    assert [w.shape for w in net.weights] == [(4, 6), (6, 5), (5, 3)]
    assert [b.shape for b in net.biases] == [(6,), (5,), (3,)]
    assert np.array_equal(net.params,
                          np.concatenate([w.ravel() for w in net.weights] + list(net.biases)))
    assert all(np.shares_memory(v, net.params) for v in net.weights + net.biases)


def test_backward_zero_upstream_is_zero():
    net, x, seed = kink_free_instance(3)
    trace = forward(net, x, "train", seed)
    grads = backward(net, trace, np.zeros_like(trace.probabilities), "probabilities")
    assert np.all(grads.vector == 0.0)


@pytest.mark.parametrize("entry", ["probabilities", "logits", "features"])
def test_backward_linearity(entry):
    net, x, seed = kink_free_instance(4, dropout=0.3)
    trace = forward(net, x, "train", seed)
    shape = trace.probabilities.shape if entry == "probabilities" else trace.features.shape
    rng = seeded_rng(9)
    g1 = rng.normal(size=shape)
    g2 = rng.normal(size=shape)
    combined = backward(net, trace, g1 + g2, entry)
    separate = backward(net, trace, g1, entry).vector + backward(net, trace, g2, entry).vector
    assert np.all(np.abs(combined.vector - separate) < 1e-10)


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
    grads = backward(net, forward(net, np.ones((2, 3))), np.zeros((2, 2)), "probabilities")
    new_net, _ = sgd_step(net, np.zeros_like(net.params), grads, 0.1, 0.9)
    assert np.array_equal(net.params, new_net.params)


@pytest.mark.parametrize("sizes", [(2, 2, 4), (3, 4, 2)], ids=["same-count", "other-count"])
def test_sgd_rejects_a_gradient_of_another_architecture(sizes):
    # (2, 2, 4) has the 18 parameters of (1, 4, 2); (3, 4, 2) has 26.
    net = init_network(NetworkSpec((1, 4, 2)), 0)
    other = init_network(NetworkSpec(sizes), 0)
    trace = forward(other, np.ones((2, sizes[0])))
    grads = backward(other, trace, np.ones_like(trace.probabilities), "probabilities")
    with pytest.raises(ShapeError):
        sgd_step(net, np.zeros_like(net.params), grads, 0.1, 0.9)


@pytest.mark.parametrize("params, buffer, match", [
    ((26,), (2, 26), r"^momentum buffer has shape \(2, 26\), expected \(26,\)$"),
    ((2, 26), (26,), r"^momentum buffer has shape \(26,\), expected \(2, 26\)$"),
], ids=["stacked-buffer-lone-net", "lone-buffer-stacked-net"])
def test_sgd_rejects_a_momentum_buffer_of_another_shape(params, buffer, match):
    # NetworkSpec((3, 4, 2)) has 26 parameters.
    net = Network(NetworkSpec((3, 4, 2)), np.zeros(params))
    grads = GradientSet(net.spec, np.ones(params), None)
    with pytest.raises(ShapeError, match=match):
        sgd_step(net, np.zeros(buffer), grads, 0.1, 0.9)


@pytest.mark.parametrize("lr", [0.0, -0.1])
def test_sgd_rejects_a_nonpositive_learning_rate(lr):
    net = init_network(NetworkSpec((3, 4, 2)), 0)
    grads = GradientSet(net.spec, np.ones_like(net.params), None)
    with pytest.raises(ValueError, match="^lr must be positive$"):
        sgd_step(net, np.zeros_like(net.params), grads, lr, 0.9)


def test_sgd_step_leaves_its_inputs_unchanged():
    net = init_network(NetworkSpec((3, 4, 2)), 0)
    grads = GradientSet(net.spec, seeded_rng(20).normal(size=net.params.shape), None)
    net, buffer = sgd_step(net, np.zeros_like(net.params), grads, 0.1, 0.9)  # a nonzero buffer
    before = net.params.copy(), buffer.copy(), grads.vector.copy()
    sgd_step(net, buffer, grads, 0.1, 0.9)
    after = net.params, buffer, grads.vector
    assert all(np.array_equal(a, b) for a, b in zip(after, before))


def test_sgd_momentum_zero_is_plain_descent():
    net = init_network(NetworkSpec((2, 2)), 1)
    g = seeded_rng(5).normal(size=(2, 2))
    grads = GradientSet(net.spec, np.concatenate([g.ravel(), np.zeros(2)]), None)
    new_net, _ = sgd_step(net, np.zeros_like(net.params), grads, 0.05, 0.0)
    assert np.allclose(new_net.weights[0] - net.weights[0], -0.05 * g)


def test_sgd_momentum_two_steps():
    # With constant gradient g and momentum 0.9, the second-step delta is
    # -lr * (0.9*g + g) = -lr * 1.9 * g.
    net = init_network(NetworkSpec((2, 2)), 1)
    g = seeded_rng(6).normal(size=(2, 2))
    grads = GradientSet(net.spec, np.concatenate([g.ravel(), np.zeros(2)]), None)
    net1, buffer1 = sgd_step(net, np.zeros_like(net.params), grads, 0.01, 0.9)
    net2, _ = sgd_step(net1, buffer1, grads, 0.01, 0.9)
    assert np.allclose(net2.weights[0] - net1.weights[0], -0.01 * 1.9 * g, atol=1e-15)


def test_finite_diff_linear_loss_is_exact():
    net = init_network(NetworkSpec((3, 4, 2)), 2)
    grads = GradientSet(net.spec, np.ones_like(net.params), None)
    assert finite_diff_check(net, lambda c: float(c.params.sum()), grads, h=1e-5) <= 1e-10


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
    labels = margin_safe_labels(trace.features, seeded_rng(10), 3, margin=3.0, guard=0.15)
    loss, d_feats = clustering_loss(trace.features, labels, 3.0)
    assert loss > 0.0
    grads = backward(net, trace, d_feats, "features")

    def loss_fn(candidate):
        feats = forward(candidate, x, "train", seed).features
        return clustering_loss(feats, labels, 3.0)[0]

    assert finite_diff_check(net, loss_fn, grads, h=1e-3, seed=2) <= 1e-4


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_penultimate_tap_backward_matches_finite_differences(dropout, activation):
    net, x, seed = kink_free_instance(12, sizes=(4, 6, 5, 3), dropout=dropout,
                                      activation=activation, feature_tap="penultimate")
    trace = forward(net, x, "train", seed)
    assert trace.features.shape == (x.shape[0], 5)
    rng = seeded_rng(13)
    probe = rng.normal(size=trace.features.shape)
    grads = backward(net, trace, probe, "features")

    def loss_fn(candidate):
        feats = forward(candidate, x, "train", seed).features
        return float((feats * probe).sum())

    assert finite_diff_check(net, loss_fn, grads, h=1e-5, seed=3) <= 1e-4


def test_one_layer_penultimate_tap_passes_the_gradient_to_the_input():
    # With no hidden layer the features are the input itself, so no
    # parameter receives gradient and d_input is the upstream gradient.
    net = init_network(NetworkSpec((3, 2), feature_tap="penultimate"), 0)
    x = seeded_rng(18).normal(size=(5, 3))
    trace = forward(net, x, "train", 0)
    assert np.array_equal(trace.features, x)
    probe = seeded_rng(19).normal(size=x.shape)
    grads = backward(net, trace, probe, "features")
    assert grads.vector.shape == net.params.shape
    assert np.all(grads.vector == 0.0)
    assert np.array_equal(grads.d_input, probe)


# d_input is what the gradient reversal hands the student from the critic.
@pytest.mark.parametrize("entry, instance", [
    ("probabilities", dict(sizes=(3, 6, 1), head="sigmoid")),
    ("features", dict(sizes=(4, 6, 5, 3), dropout=0.3, feature_tap="penultimate")),
    ("logits", dict(dropout=0.3)),
], ids=["probabilities-sigmoid", "features-penultimate", "logits"])
def test_backward_d_input_matches_finite_differences(entry, instance):
    net, x, seed = kink_free_instance(16, **instance)
    trace = forward(net, x, "train", seed)

    def output(x_in):
        t = forward(net, x_in, "train", seed)
        return {"probabilities": t.probabilities, "features": t.features,
                "logits": t.pre_activations[-1]}[entry]

    probe = seeded_rng(17).normal(size=output(x).shape)
    d_input = backward(net, trace, probe, entry).d_input
    assert d_input.shape == x.shape
    assert input_finite_diff_check(lambda x_in: float((output(x_in) * probe).sum()),
                                   x, d_input, h=1e-5) <= 1e-4


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


@pytest.mark.parametrize("width", range(1, 10))
@pytest.mark.parametrize("lead", [(), (7,), (2, 3, 64), (1100,)])
def test_reduce_rows_holds_the_bits_of_numpy_reductions(lead, width):
    # Magnitudes over many decades make any reordering of a sum visible.
    rng = seeded_rng(27, width)
    a = rng.uniform(-1.0, 1.0, size=lead + (width,)) * 10.0 ** rng.integers(-8, 9, size=lead + (width,))
    for ufunc in (np.add, np.maximum):
        assert (reduce_rows(ufunc, a).tobytes()
                == ufunc.reduce(a, axis=-1, keepdims=True).tobytes())


@pytest.mark.parametrize("width", [1, 2, 3, 16, 17])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_bias_row_sums_hold_the_bits_of_numpy_sums(lead, width):
    rng = seeded_rng(28, width)
    for rows in (1, 7, 64, 65, 300):
        a = rng.uniform(-1.0, 1.0, size=lead + (rows, width)) * 10.0 ** rng.integers(
            -8, 9, size=lead + (rows, width))
        out = np.empty(lead + (width,))
        network_module._row_sum(a, out)
        assert out.tobytes() == a.sum(axis=-2).tobytes()
