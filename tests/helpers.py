"""Shared test utilities: kink-avoiding samplers, brute-force oracles and the
finite-difference gradient check."""

import numpy as np

from clusteralign.network import GradientSet, Network, NetworkSpec, forward, init_network
from clusteralign.seeding import seeded_rng


def min_abs_preactivation(net, x, noise_seed):
    trace = forward(net, x, mode="train", noise_seed=noise_seed)
    return min(float(np.abs(z).min()) for z in trace.pre_activations)


def kink_free_instance(seed, sizes=(3, 6, 4, 2), batch=8, dropout=0.0,
                       activation="relu", feature_tap="logits", head="softmax",
                       guard=1e-3):
    """A (net, x, noise_seed) triple whose forward pass stays clear of relu
    kinks, so central differences are trustworthy."""
    keys = list(seed) if isinstance(seed, tuple) else [seed]
    for attempt in range(200):
        rng = seeded_rng(*keys, attempt)
        spec = NetworkSpec(sizes, activation=activation, dropout_rate=dropout,
                           feature_tap=feature_tap, head=head)
        net = init_network(spec, int(rng.integers(2**31)))
        x = rng.normal(scale=1.2, size=(batch, sizes[0]))
        noise_seed = int(rng.integers(2**31))
        if activation != "relu" or min_abs_preactivation(net, x, noise_seed) > guard:
            return net, x, noise_seed
    raise AssertionError("could not sample a kink-free instance")


def margin_safe_labels(features, rng, num_classes, margin, squared, guard=1e-2):
    """Labels whose cross-class pair distances stay away from the hinge."""
    n = features.shape[0]
    for _ in range(200):
        labels = rng.integers(num_classes, size=n)
        diff = features[:, None, :] - features[None, :, :]
        d = (diff ** 2).sum(-1)
        if not squared:
            d = np.sqrt(d)
        cross = labels[:, None] != labels[None, :]
        if not np.any(cross & (np.abs(d - margin) < guard)):
            return labels.astype(np.int64)
    raise AssertionError("could not sample margin-safe labels")


def brute_force_clustering(features, labels, margin, squared=True):
    """Literal double loop over all ordered pairs; the loss oracle."""
    n = features.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            diff = features[i] - features[j]
            d = float(diff @ diff)
            if not squared:
                d = float(np.sqrt(d))
            if labels[i] == labels[j]:
                total += d
            else:
                total += max(0.0, margin - d)
    return total / (n * n)


def brute_force_clustering_grad(features, labels, margin, squared=True):
    """Literal double loop over all ordered pairs, loss and gradient; the
    kernel oracle. Each pair adds d(term)/d(dist) * d(dist)/d(f_i) to f_i
    and its negation to f_j."""
    n, d = features.shape
    loss = 0.0
    grad = np.zeros((n, d))
    for i in range(n):
        for j in range(n):
            diff = features[i] - features[j]
            sq = float(diff @ diff)
            dist = sq if squared else float(np.sqrt(sq))
            if labels[i] == labels[j]:
                coef = 1.0
                loss += dist
            elif dist < margin:
                coef = -1.0
                loss += margin - dist
            else:
                continue
            if squared:
                scale = 2.0 * coef
            elif dist > 0.0:
                scale = coef / dist
            else:
                scale = 0.0
            grad[i] += scale * diff
            grad[j] -= scale * diff
    return loss / (n * n), grad / (n * n)


def brute_force_alignment(src_feats, src_labels, tgt_feats, tgt_labels, num_classes):
    """Per-class mean gaps recomputed by hand; the alignment oracle."""
    terms = []
    for k in range(num_classes):
        src = src_feats[src_labels == k]
        tgt = tgt_feats[tgt_labels == k]
        if len(src) and len(tgt):
            gap = src.mean(axis=0) - tgt.mean(axis=0)
            terms.append(float(gap @ gap))
    return sum(terms) / len(terms) if terms else 0.0


def ewma_oracle(predictions, decay):
    """Direct exponentially-weighted sum with bias correction.

    After t updates: sum_{j<=t} decay^(t-j) (1-decay) p_j / (1 - decay^t).
    """
    t = len(predictions)
    acc = np.zeros_like(predictions[0])
    for j, p in enumerate(predictions, start=1):
        acc += decay ** (t - j) * (1.0 - decay) * p
    return acc / (1.0 - decay ** t)


def total_objective(l_y, l_c, l_a, l_d, alpha: float, lam: float) -> float:
    """The scalar the student descends: l_y + alpha*(l_c + l_a) + lam*l_d.

    The adversarial term carries a positive sign here because the student
    minimizes the discrepancy while the critic maximizes it; the oracle
    the composed training gradient is checked against.
    """
    if alpha < 0 or lam < 0:
        raise ValueError("alpha and lam must be nonnegative")
    return float(l_y + alpha * (l_c + l_a) + lam * l_d)


def _flat_views(net: Network):
    for i, w in enumerate(net.weights):
        yield ("w", i, w)
    for i, b in enumerate(net.biases):
        yield ("b", i, b)


def _perturbed(net: Network, kind, layer, flat_index, delta):
    weights = list(net.weights)
    biases = list(net.biases)
    if kind == "w":
        arr = weights[layer].copy()
        arr.flat[flat_index] += delta
        weights[layer] = arr
    else:
        arr = biases[layer].copy()
        arr.flat[flat_index] += delta
        biases[layer] = arr
    return Network(net.spec, tuple(weights), tuple(biases))


def finite_diff_check(net: Network, loss_fn, grads: GradientSet, h: float = 1e-5,
                      max_coords: int = 64, seed: int = 0) -> float:
    """Worst relative error between analytic gradients and central differences.

    loss_fn maps a Network to a scalar and must be deterministic (fix any
    noise seeds inside it). A random subset of at most max_coords
    parameter coordinates is probed; the relative error denominator is
    max(|analytic|, |numeric|, 1e-8).
    """
    if not 0.0 < h <= 1e-3:
        raise ValueError("h must lie in (0, 1e-3]")
    coords = []
    for kind, layer, arr in _flat_views(net):
        for flat_index in range(arr.size):
            coords.append((kind, layer, flat_index))
    if len(coords) > max_coords:
        rng = seeded_rng(seed)
        picked = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[i] for i in picked]

    grad_lookup = {"w": grads.d_weights, "b": grads.d_biases}
    worst = 0.0
    for kind, layer, flat_index in coords:
        analytic = float(grad_lookup[kind][layer].flat[flat_index])
        up = loss_fn(_perturbed(net, kind, layer, flat_index, +h))
        down = loss_fn(_perturbed(net, kind, layer, flat_index, -h))
        numeric = (up - down) / (2.0 * h)
        denom = max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic - numeric) / denom)
    return worst
