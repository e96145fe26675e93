"""Small feedforward classifiers with exact reverse-mode gradients.

Networks are plain stacks of dense layers. The forward pass records every
intermediate needed for backpropagation (pre-activations, the activations
actually fed forward, dropout masks), so a backward pass reproduces the
exact gradient of any scalar loss whose upstream gradient is supplied at
one of three entry points:

    probabilities - after the softmax (or sigmoid) head
    logits        - the final pre-activation
    features      - the slice selected by the configured feature tap

All state is value-semantic: operations return new objects and never
mutate their inputs.
"""

from dataclasses import dataclass

import numpy as np

from clusteralign.seeding import seeded_rng

ACTIVATIONS = ("relu", "tanh")
FEATURE_TAPS = ("penultimate", "logits")
HEADS = ("softmax", "sigmoid")


class ShapeError(ValueError):
    """An array did not have the shape a contract requires."""


class DomainError(ValueError):
    """An input value was outside the mathematical domain (e.g. NaN)."""


def as_matrix(x, name="x"):
    """Validate a 2-D finite float64 array, copying only when needed."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description.

    layer_sizes runs input dim -> hidden dims -> output dim. Dropout
    applies to hidden activations only. The feature tap picks which
    activations act as the adaptation features: the final pre-activation
    ("logits") or the input of the final layer ("penultimate"). The head
    is softmax for classifiers and sigmoid for the 1-unit critic.
    """

    layer_sizes: tuple
    activation: str = "relu"
    dropout_rate: float = 0.0
    feature_tap: str = "logits"
    head: str = "softmax"

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("layer_sizes needs at least an input and an output size")
        if any(s < 1 for s in sizes):
            raise ValueError("layer sizes must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {', '.join(ACTIVATIONS)}; "
                             f"got {self.activation!r}")
        if self.feature_tap not in FEATURE_TAPS:
            raise ValueError(f"feature_tap must be one of {', '.join(FEATURE_TAPS)}; "
                             f"got {self.feature_tap!r}")
        if self.head not in HEADS:
            raise ValueError(f"head must be one of {', '.join(HEADS)}; got {self.head!r}")
        if self.head == "softmax" and sizes[-1] < 2:
            raise ValueError("softmax head needs at least 2 output units")
        if self.head == "sigmoid" and sizes[-1] != 1:
            raise ValueError("sigmoid head needs exactly 1 output unit")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")

    @property
    def input_dim(self):
        return self.layer_sizes[0]

    @property
    def output_dim(self):
        return self.layer_sizes[-1]

    @property
    def feature_dim(self):
        if self.feature_tap == "logits":
            return self.layer_sizes[-1]
        return self.layer_sizes[-2]


@dataclass(frozen=True)
class Network:
    spec: NetworkSpec
    weights: tuple
    biases: tuple

    @property
    def num_layers(self):
        return len(self.weights)


@dataclass(frozen=True)
class ForwardTrace:
    """Everything the backward pass needs from one forward pass.

    inputs[i] is the matrix fed into dense layer i (inputs[0] is x);
    pre_activations[i] is inputs[i] @ W_i + b_i. masks holds the scaled
    dropout masks per hidden layer and is None when dropout was inactive.
    """

    inputs: tuple
    pre_activations: tuple
    masks: tuple
    features: np.ndarray
    probabilities: np.ndarray


@dataclass(frozen=True)
class GradientSet:
    """Per-parameter gradients plus the gradient w.r.t. the input batch.

    Adding two sets sums the parameter gradients; the sum carries no
    d_input, since its operands may come from different input batches.
    """

    d_weights: tuple
    d_biases: tuple
    d_input: np.ndarray

    def __add__(self, other):
        return GradientSet(
            tuple(a + b for a, b in zip(self.d_weights, other.d_weights)),
            tuple(a + b for a, b in zip(self.d_biases, other.d_biases)),
            None,
        )


@dataclass(frozen=True)
class OptimizerState:
    """Classical momentum buffers, zero-initialized."""

    buffers_w: tuple
    buffers_b: tuple
    momentum: float = 0.9


def init_network(spec: NetworkSpec, seed: int) -> Network:
    """Uniform weight init in [-s, s] with s = sqrt(6/(fan_in+fan_out)); zero biases."""
    rng = seeded_rng(seed)
    weights = []
    biases = []
    sizes = spec.layer_sizes
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-s, s, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Network(spec, tuple(weights), tuple(biases))


def init_optimizer(net: Network, momentum: float = 0.9) -> OptimizerState:
    if not 0.0 <= momentum < 1.0:
        raise ValueError("momentum must lie in [0, 1)")
    return OptimizerState(
        tuple(np.zeros_like(w) for w in net.weights),
        tuple(np.zeros_like(b) for b in net.biases),
        float(momentum),
    )


def _activate(z, kind):
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activate_grad(z, kind):
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    t = np.tanh(z)
    return 1.0 - t * t


def _softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def forward(net: Network, x, mode: str = "eval", noise_seed: int = 0) -> ForwardTrace:
    """Run the network, recording the full trace.

    Deterministic given (net, x, mode, noise_seed): dropout masks are
    drawn from a generator keyed by noise_seed alone. Eval mode disables
    dropout entirely.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = as_matrix(x)
    spec = net.spec
    if x.shape[1] != spec.input_dim:
        raise ShapeError(
            f"input has {x.shape[1]} columns, network expects {spec.input_dim}"
        )
    use_dropout = mode == "train" and spec.dropout_rate > 0.0
    rng = seeded_rng(noise_seed) if use_dropout else None
    keep = 1.0 - spec.dropout_rate

    inputs = [x]
    pre_acts = []
    masks = []
    a = x
    last = net.num_layers - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w + b
        pre_acts.append(z)
        if i == last:
            break
        h = _activate(z, spec.activation)
        if use_dropout:
            mask = (rng.random(h.shape) >= spec.dropout_rate) / keep
            h = h * mask
            masks.append(mask)
        a = h
        inputs.append(a)

    logits = pre_acts[-1]
    if spec.head == "softmax":
        probs = _softmax(logits)
    else:
        probs = _sigmoid(logits)
    features = logits if spec.feature_tap == "logits" else inputs[-1]
    return ForwardTrace(
        inputs=tuple(inputs),
        pre_activations=tuple(pre_acts),
        masks=tuple(masks) if use_dropout else None,
        features=features,
        probabilities=probs,
    )


def _head_jvp(trace, d_probs, head):
    """Pull an upstream gradient on the head output back to the logits."""
    p = trace.probabilities
    if head == "softmax":
        inner = (d_probs * p).sum(axis=1, keepdims=True)
        return p * (d_probs - inner)
    return d_probs * p * (1.0 - p)


def backward(net: Network, trace: ForwardTrace, upstream, entry: str) -> GradientSet:
    """Exact gradients of a scalar loss w.r.t. all parameters and the input.

    upstream is d(loss)/d(entry point); dropout masks recorded in the
    trace are reused, so the gradient matches the exact forward that
    produced the trace. Backward is linear in upstream.
    """
    if entry not in ("probabilities", "logits", "features"):
        raise ValueError(f"unknown entry {entry!r}")
    spec = net.spec
    upstream = np.asarray(upstream, dtype=np.float64)
    n_layers = net.num_layers
    d_weights = [np.zeros_like(w) for w in net.weights]
    d_biases = [np.zeros_like(b) for b in net.biases]

    rows = trace.inputs[0].shape[0]

    def expect(shape):
        if upstream.shape != shape:
            raise ShapeError(
                f"upstream gradient has shape {upstream.shape}, expected {shape}"
            )

    if entry == "probabilities":
        expect(trace.probabilities.shape)
        dz = _head_jvp(trace, upstream, spec.head)
        start = n_layers - 1
    elif entry == "logits" or spec.feature_tap == "logits":
        expect((rows, spec.output_dim) if entry == "logits" else trace.features.shape)
        dz = upstream
        start = n_layers - 1
    else:
        # Penultimate tap: the gradient enters below the final layer.
        expect(trace.features.shape)
        if n_layers == 1:
            return GradientSet(tuple(d_weights), tuple(d_biases), upstream.copy())
        da = upstream
        if trace.masks is not None:
            da = da * trace.masks[n_layers - 2]
        dz = da * _activate_grad(trace.pre_activations[n_layers - 2], spec.activation)
        start = n_layers - 2

    for i in range(start, -1, -1):
        a_in = trace.inputs[i]
        d_weights[i] = a_in.T @ dz
        d_biases[i] = dz.sum(axis=0)
        da = dz @ net.weights[i].T
        if i == 0:
            d_input = da
            break
        if trace.masks is not None:
            da = da * trace.masks[i - 1]
        dz = da * _activate_grad(trace.pre_activations[i - 1], spec.activation)

    return GradientSet(tuple(d_weights), tuple(d_biases), d_input)


def reverse_gradient(g, lam: float):
    """Scaled sign flip: -lam * g. The forward path is the identity."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return -float(lam) * np.asarray(g, dtype=np.float64)


def sgd_step(net: Network, state: OptimizerState, grads: GradientSet, lr: float):
    """One classical-momentum update: buffer <- m*buffer + g; theta <- theta - lr*buffer."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    for w, g in zip(net.weights, grads.d_weights):
        if w.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match weight {w.shape}")
    m = state.momentum
    new_buf_w = tuple(m * b + g for b, g in zip(state.buffers_w, grads.d_weights))
    new_buf_b = tuple(m * b + g for b, g in zip(state.buffers_b, grads.d_biases))
    new_w = tuple(w - lr * b for w, b in zip(net.weights, new_buf_w))
    new_b = tuple(bb - lr * b for bb, b in zip(net.biases, new_buf_b))
    return (
        Network(net.spec, new_w, new_b),
        OptimizerState(new_buf_w, new_buf_b, m),
    )

