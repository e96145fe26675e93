"""Small feedforward classifiers with exact reverse-mode gradients.

Networks are plain stacks of dense layers. The forward pass records every
intermediate needed for backpropagation (pre-activations, the activations
actually fed forward, dropout masks), so a backward pass reproduces the
exact gradient of any scalar loss whose upstream gradient is supplied at
one of three entry points:

    probabilities - after the softmax (or sigmoid) head
    logits        - the final pre-activation
    features      - the slice selected by the configured feature tap

A caller that reads only the features and probabilities (evaluation, the
Pi teacher, a critic pass without gradients) runs an untraced pass
(traced=False): the same layer loop with the same arithmetic, which
records nothing and lets each layer's arrays go as soon as the next layer
has been formed, so its features and probabilities hold the traced
pass's bits.

A network's parameters, a gradient and a momentum buffer are each one
float64 vector in NetworkSpec.layout: every weight matrix row-major in
layer order, then every bias. All state is value-semantic: operations
return new objects and never mutate their inputs. Network.weights and
Network.biases are views of Network.params; only init_network writes
through them.

A group of seeds trained together stacks its networks: params gains a
leading seed axis, and every batch, trace and gradient of the group
carries the same axis in front of its (rows, columns) axes. A batch may
carry a further leading domain axis in front of that (a training step
passes its source and target batches as one), and its trace and
gradients keep it. Each (domain, seed) slice holds the bytes that a pass
over that slice alone would hold.
"""

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from clusteralign.seeding import seeded_rng

ACTIVATIONS = ("relu", "tanh")
FEATURE_TAPS = ("penultimate", "logits")
HEADS = ("softmax", "sigmoid")


class ShapeError(ValueError):
    """An array did not have the shape a contract requires."""


class DomainError(ValueError):
    """An input value was outside the mathematical domain (e.g. NaN);
    seed_index is the seed of the first (domain, seed) slice that holds
    one (0 for an array without a seed axis)."""

    def __init__(self, message, seed_index=0):
        super().__init__(message)
        self.seed_index = seed_index


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
    def feature_dim(self):
        if self.feature_tap == "logits":
            return self.layer_sizes[-1]
        return self.layer_sizes[-2]

    @cached_property
    def layout(self):
        """(start, stop, shape) of each parameter array in a parameter vector:
        every weight matrix row-major in layer order, then every bias."""
        sizes = self.layer_sizes
        shapes = (*zip(sizes[:-1], sizes[1:]), *((n,) for n in sizes[1:]))
        stops = tuple(itertools.accumulate(math.prod(shape) for shape in shapes))
        return tuple(zip((0,) + stops, stops, shapes))

    @property
    def num_params(self):
        return self.layout[-1][1]


def row_index(indices, num_rows):
    """Flat row numbers of indices[..., j] in an array of shape
    (..., num_rows, m) read as (-1, m): each entry of the leading seed
    axis picks from its own num_rows rows."""
    lead = indices.shape[:-1]
    return indices + np.arange(0, num_rows * math.prod(lead), num_rows).reshape(lead + (1,))


def _views(spec, vector):
    """The per-layer weight views and bias views of a vector in spec.layout
    (of each seed's vector, for a stacked one)."""
    lead = vector.shape[:-1]
    half = len(spec.layout) // 2
    # A bias slice already has the shape of its view.
    return (tuple(vector[..., start:stop].reshape(lead + shape)
                  for start, stop, shape in spec.layout[:half]),
            tuple(vector[..., start:stop] for start, stop, _ in spec.layout[half:]))


@dataclass(frozen=True)
class Network:
    """A network's parameters: params is one float64 vector in spec.layout
    (every weight matrix row-major in layer order, then every bias), or a
    stack of them with a leading seed axis, and weights and biases are
    its per-layer views."""

    spec: NetworkSpec
    params: np.ndarray
    weights: tuple = field(init=False, repr=False, compare=False)
    biases: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.params.ndim > 2 or self.params.shape[-1:] != (self.spec.num_params,):
            raise ShapeError(f"params has shape {self.params.shape}, expected "
                             f"({self.spec.num_params},) or (seeds, {self.spec.num_params})")
        weights, biases = _views(self.spec, self.params)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)


@dataclass(frozen=True)
class ForwardTrace:
    """Everything the backward pass needs from one forward pass.

    inputs[i] is the matrix fed into dense layer i (inputs[0] is x);
    pre_activations[i] is inputs[i] @ W_i + b_i. masks holds the scaled
    dropout masks per hidden layer and is None when dropout was inactive.
    An untraced pass (forward with traced=False) holds None in inputs,
    pre_activations and masks, and backward refuses it. Every array
    carries the leading axes of x; indexing a trace indexes its leading
    axis, e.g. trace[0] is the source domain's trace.
    """

    inputs: tuple
    pre_activations: tuple
    masks: tuple
    features: np.ndarray
    probabilities: np.ndarray

    def __getitem__(self, index):
        def pick(arrays):
            return None if arrays is None else tuple([a[index] for a in arrays])

        return ForwardTrace(pick(self.inputs), pick(self.pre_activations), pick(self.masks),
                            self.features[index], self.probabilities[index])


@dataclass(frozen=True)
class GradientSet:
    """The gradient of one scalar loss: vector w.r.t. the parameters of a
    network of the given spec, in spec.layout (every weight matrix
    row-major in layer order, then every bias; one vector per (domain,
    seed) slice of the input batch), and d_input w.r.t. the input batch,
    None when not asked for.
    """

    spec: NetworkSpec
    vector: np.ndarray
    d_input: np.ndarray


def init_network(spec: NetworkSpec, seed: int) -> Network:
    """Uniform weight init in [-s, s] with s = sqrt(6/(fan_in+fan_out)); zero biases."""
    rng = seeded_rng(seed)
    params = np.zeros(spec.num_params)
    for w in _views(spec, params)[0]:
        fan_in, fan_out = w.shape
        s = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-s, s, size=w.shape)
    return Network(spec, params)


def _activate(z, kind):
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activate_grad(z, kind):
    if kind == "relu":
        # A product with a bool array multiplies by 1.0 or 0.0.
        return z > 0.0
    t = np.tanh(z)
    return 1.0 - t * t


def reduce_rows(ufunc, a):
    """ufunc (np.add or np.maximum) reduced along the last axis of a, kept
    as an axis of length 1. numpy reduces a row of fewer than 8 entries as
    a left fold, so below 8 columns this folds column slices, with the
    same bits and without numpy's per-row reduction loop."""
    if a.shape[-1] >= 8:
        return ufunc.reduce(a, axis=-1, keepdims=True)
    out = a[..., :1].copy()
    for j in range(1, a.shape[-1]):
        ufunc(out, a[..., j:j + 1], out=out)
    return out


def _softmax(z):
    shifted = z - reduce_rows(np.maximum, z)
    e = np.exp(shifted)
    return e / reduce_rows(np.add, e)


def _sigmoid(z):
    # 1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, so no
    # exp overflows.
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, ez) / (1.0 + ez)


def forward(net: Network, x, mode: str = "eval", noise=0, traced: bool = True) -> ForwardTrace:
    """Run the network, recording the full trace (with traced=False, only
    the features and probabilities: see ForwardTrace).

    Deterministic given (net, x, mode, noise). A stacked network takes a
    batch per seed, x of shape (seeds, rows, columns), optionally behind a
    leading domain axis, (domains, seeds, rows, columns). Eval mode
    disables dropout and ignores noise. In train mode, noise gives every
    (domain, seed) slice, domain-major, a stream of uniforms in [0, 1):
    a key (one slice) or one key per slice, whose generator seeded_rng(key)
    draws the stream, or the streams themselves, an array of shape
    (slices, rows * hidden units). A slice's stream covers its hidden
    layers in layer order, each row-major; a unit whose uniform is below
    the dropout rate is dropped.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    spec = net.spec
    lead = net.params.shape[:-1]
    if x.ndim not in (len(lead) + 2, len(lead) + 3) or x.shape[x.ndim - 2 - len(lead):-2] != lead:
        raise ShapeError(f"x has shape {x.shape}, expected {(*lead, 'rows', 'columns')}, "
                         f"optionally behind a domain axis")
    if x.shape[-1] != spec.input_dim:
        raise ShapeError(
            f"input has {x.shape[-1]} columns, network expects {spec.input_dim}"
        )
    slices = math.prod(x.shape[:-2])
    finite = np.isfinite(x)
    if not finite.all():
        first = int(np.argmin(finite.reshape(slices, -1).all(axis=1)))
        raise DomainError("x contains non-finite entries", first % math.prod(lead))
    use_dropout = mode == "train" and spec.dropout_rate > 0.0
    if use_dropout:
        kept = _keep_masks(noise, slices, x.shape[-2] * sum(spec.layer_sizes[1:-1]),
                           spec.dropout_rate)
        offset = 0

    inputs = [x]
    pre_acts = []
    masks = []
    a = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w
        z += b[..., None, :]
        if i == last:
            break
        a = _activate(z, spec.activation)
        if use_dropout:
            size = a.shape[-2] * a.shape[-1]
            mask = kept[:, offset:offset + size].reshape(a.shape)
            offset += size
            a *= mask
            masks.append(mask)
        if traced:
            pre_acts.append(z)
            inputs.append(a)
        # Untraced, a layer's arrays go once the next layer no longer needs them.
        del z

    if spec.head == "softmax":
        probs = _softmax(z)
    else:
        probs = _sigmoid(z)
    features = z if spec.feature_tap == "logits" else a
    if not traced:
        return ForwardTrace(None, None, None, features, probs)
    pre_acts.append(z)
    return ForwardTrace(
        inputs=tuple(inputs),
        pre_activations=tuple(pre_acts),
        masks=tuple(masks) if use_dropout else None,
        features=features,
        probabilities=probs,
    )


def _keep_masks(noise, slices, count, rate):
    """The scaled keep masks of every slice's stream of count uniforms (see
    forward), one row per slice: 1 / (1 - rate) where the uniform is at
    least the rate, else 0."""
    if isinstance(noise, np.ndarray):
        if noise.shape != (slices, count):
            raise ShapeError(f"noise has shape {noise.shape}, expected {(slices, count)}")
        draws = noise
    else:
        keys = tuple(noise) if isinstance(noise, (tuple, list)) else (noise,)
        if len(keys) != slices:
            raise ValueError(f"{len(keys)} noise seeds for {slices} (domain, seed) slices")
        draws = np.empty((slices, count))
        for key, row in zip(keys, draws):
            seeded_rng(key).random(out=row)
    return (draws >= rate) / (1.0 - rate)


def _head_jvp(trace, d_probs, head):
    """Pull an upstream gradient on the head output back to the logits."""
    p = trace.probabilities
    if head == "softmax":
        inner = reduce_rows(np.add, d_probs * p)
        return p * (d_probs - inner)
    return d_probs * p * (1.0 - p)


def backward(net: Network, trace: ForwardTrace, upstream, entry: str,
             input_gradient: bool = True) -> GradientSet:
    """Exact gradients of a scalar loss w.r.t. all parameters and the input.

    upstream is d(loss)/d(entry point); dropout masks recorded in the
    trace are reused, so the gradient matches the exact forward that
    produced the trace. Backward is linear in upstream. A penultimate tap
    on a net without hidden layers taps the input itself; its d_input is
    then upstream. With input_gradient=False the first layer's input
    gradient is not formed and d_input is None. A trace with a domain
    axis gives one parameter gradient per (domain, seed) slice, each
    formed from its own slice's rows.
    """
    if entry not in ("probabilities", "logits", "features"):
        raise ValueError(f"unknown entry {entry!r}")
    if trace.inputs is None:
        raise ValueError("backward needs the trace of a traced forward pass")
    spec = net.spec
    upstream = np.asarray(upstream, dtype=np.float64)
    # A logit-tap feature gradient has the shape of the head output.
    shape = trace.features.shape if entry == "features" else trace.probabilities.shape
    if upstream.shape != shape:
        raise ShapeError(f"upstream gradient has shape {upstream.shape}, expected {shape}")

    # The entry point only picks where the loop starts: a pre-activation
    # gradient dz of the final layer, or (penultimate tap) the gradient da
    # of the final layer's input, which leaves the final layer's slots of
    # the zero vector untouched.
    top = start = len(net.weights) - 1
    if entry == "probabilities":
        dz = _head_jvp(trace, upstream, spec.head)
    elif entry == "logits" or spec.feature_tap == "logits":
        dz = upstream
    else:
        da = upstream
        start = top - 1

    vector = np.zeros(upstream.shape[:-2] + (spec.num_params,))
    d_weights, d_biases = _views(spec, vector)
    for i in range(start, -1, -1):
        if i < top:
            if trace.masks is not None:
                dz = da * trace.masks[i]
                dz *= _activate_grad(trace.pre_activations[i], spec.activation)
            else:
                dz = da * _activate_grad(trace.pre_activations[i], spec.activation)
        np.matmul(trace.inputs[i].mT, dz, out=d_weights[i])
        _row_sum(dz, d_biases[i])
        if i or input_gradient:
            da = dz @ net.weights[i].mT
    return GradientSet(spec, vector, da if input_gradient else None)


def _row_sum(a, out):
    """a.sum(axis=-2, out=out), the bias gradient of a batch. numpy adds
    the rows one after another when a row holds more than one entry, and
    so does einsum, at about half the cost; a single column is summed
    pairwise, which einsum does not do."""
    if a.shape[-1] > 1:
        np.einsum("...ij->...j", a, out=out)
    else:
        a.sum(axis=-2, out=out)


def reverse_gradient(g, lam: float):
    """Scaled sign flip: -lam * g. The forward path is the identity."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return -float(lam) * np.asarray(g, dtype=np.float64)


def sgd_step(net: Network, buffer, grads: GradientSet, lr: float, momentum: float):
    """One classical-momentum update of net and its momentum buffer (shaped
    like net.params, zeros before the first step): buffer <- momentum*buffer
    + g; theta <- theta - lr*buffer. Returns (the new network, the new buffer)."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    if grads.spec.layer_sizes != net.spec.layer_sizes or grads.vector.shape != net.params.shape:
        raise ShapeError(f"gradient of shape {grads.vector.shape} for layer sizes "
                         f"{grads.spec.layer_sizes} does not fit {net.spec.layer_sizes}")
    if np.shape(buffer) != net.params.shape:
        raise ShapeError(f"momentum buffer has shape {np.shape(buffer)}, "
                         f"expected {net.params.shape}")
    buffer = momentum * buffer + grads.vector
    return Network(net.spec, net.params - lr * buffer), buffer

