"""Shared test utilities: kink-avoiding samplers, brute-force oracles and the
finite-difference gradient check."""

import os
from pathlib import Path

import numpy as np

import clusteralign
from clusteralign.data import BatchPair, batch_indices
from clusteralign.network import (
    Network,
    NetworkSpec,
    forward,
    init_network,
    row_index,
)
from clusteralign.seeding import seeded_rng
from clusteralign.teacher import TeacherState


def key_noise(net, x, keys):
    """The dropout noise (as network.forward takes it) of a pass of net over
    x in which each (domain, seed) slice, domain-major, draws the stream of
    seeded_rng(key): keys is one key, or a tuple or list of one per slice."""
    keys = tuple(keys) if isinstance(keys, (tuple, list)) else (keys,)
    count = np.shape(x)[-2] * sum(net.spec.layer_sizes[1:-1])
    return np.array([seeded_rng(key).random(count) for key in keys])


def min_abs_preactivation(net, x, noise):
    trace = forward(net, x, noise)
    return min(float(np.abs(z).min()) for z in trace.pre_activations)


def kink_free_instance(seed, sizes=(3, 6, 4, 2), batch=8, dropout=0.0,
                       feature_tap="logits", guard=1e-3):
    """A (net, x, noise) triple whose forward pass stays clear of relu
    kinks, so central differences are trustworthy; noise is the stream of
    a seeded key (key_noise)."""
    keys = list(seed) if isinstance(seed, tuple) else [seed]
    for attempt in range(200):
        rng = seeded_rng(*keys, attempt)
        spec = NetworkSpec(sizes, dropout_rate=dropout, feature_tap=feature_tap)
        net = init_network(spec, int(rng.integers(2**31)))
        x = rng.normal(scale=1.2, size=(batch, sizes[0]))
        noise = key_noise(net, x, int(rng.integers(2**31)))
        if min_abs_preactivation(net, x, noise) > guard:
            return net, x, noise
    raise AssertionError("could not sample a kink-free instance")


def margin_safe_labels(features, rng, num_classes, margin, guard=1e-2):
    """Labels whose cross-class squared pair distances stay away from the
    hinge."""
    n = features.shape[0]
    for _ in range(200):
        labels = rng.integers(num_classes, size=n)
        diff = features[:, None, :] - features[None, :, :]
        d = (diff ** 2).sum(-1)
        cross = labels[:, None] != labels[None, :]
        if not np.any(cross & (np.abs(d - margin) < guard)):
            return labels.astype(np.int64)
    raise AssertionError("could not sample margin-safe labels")


def brute_force_clustering(features, labels, margin):
    """Literal double loop over all ordered pairs; the loss oracle."""
    n = features.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            diff = features[i] - features[j]
            d = float(diff @ diff)
            if labels[i] == labels[j]:
                total += d
            else:
                total += max(0.0, margin - d)
    return total / (n * n)


def brute_force_clustering_grad(features, labels, margin):
    """Literal double loop over all ordered pairs, loss and gradient; the
    kernel oracle. Each pair adds d(term)/d(dist) * d(dist)/d(f_i) to f_i
    and its negation to f_j."""
    n, d = features.shape
    loss = 0.0
    grad = np.zeros((n, d))
    for i in range(n):
        for j in range(n):
            diff = features[i] - features[j]
            dist = float(diff @ diff)
            if labels[i] == labels[j]:
                coef = 1.0
                loss += dist
            elif dist < margin:
                coef = -1.0
                loss += margin - dist
            else:
                continue
            grad[i] += 2.0 * coef * diff
            grad[j] -= 2.0 * coef * diff
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


def temporal_update(state, indices, probabilities, decay):
    """Fold a batch of predictions into the running ensemble: ensemble[i]
    <- decay * ensemble[i] + (1 - decay) * p[i] for each batch sample, and
    its update count increments. The update oracle of
    teacher.temporal_step."""
    idx = np.asarray(indices, dtype=np.int64)
    probs = np.asarray(probabilities, dtype=np.float64)
    if idx.shape != probs.shape[:-1]:
        raise ValueError("one probability row per index required")
    num_rows, num_classes = state.ensemble.shape[-2:]
    if idx.size and (idx.min() < 0 or idx.max() >= num_rows):
        raise IndexError("teacher update index out of range")
    ensemble = state.ensemble.copy()
    counts = state.step_counts.copy()
    rows = row_index(idx, num_rows)
    flat = ensemble.reshape(-1, num_classes)
    flat[rows] = decay * flat[rows] + (1.0 - decay) * probs
    counts.reshape(-1)[rows] += 1
    return TeacherState(ensemble, counts)


def iterate_batches(ds, batch, seed, epoch):
    """One seed's batch pairs for one epoch, at the indices of
    data.batch_indices; the batch oracle of the trainer's epoch gather."""
    src, tgt = batch_indices(ds.source_x.shape[0], ds.target_x.shape[0], batch, seed, epoch)
    return [BatchPair(np.stack((ds.source_x[src_idx], ds.target_x[tgt_idx])),
                      ds.source_y[src_idx], tgt_idx)
            for src_idx, tgt_idx in zip(src, tgt)]


def total_objective(l_y, l_c, l_a, l_d, alpha: float, lam: float) -> float:
    """The scalar the student descends: l_y + alpha*(l_c + l_a) + lam*l_d.

    The adversarial term carries a positive sign here because the student
    minimizes the discrepancy while the critic maximizes it; the oracle
    the composed training gradient is checked against.
    """
    if alpha < 0 or lam < 0:
        raise ValueError("alpha and lam must be nonnegative")
    return float(l_y + alpha * (l_c + l_a) + lam * l_d)


def finite_diff_check(net: Network, loss_fn, vector, h: float = 1e-5,
                      max_coords: int = 64, seed: int = 0) -> float:
    """Worst relative error between an analytic parameter gradient vector
    and central differences.

    loss_fn maps a Network to a scalar and must be deterministic (fix any
    dropout noise inside it). A random subset of at most max_coords
    coordinates of net.params is probed.
    """
    coords = range(net.params.size)
    if len(coords) > max_coords:
        coords = seeded_rng(seed).choice(len(coords), size=max_coords, replace=False)
    return _worst_relative_error(lambda params: loss_fn(Network(net.spec, params)),
                                 net.params, vector, coords, h)


def input_finite_diff_check(loss_fn, x, d_input, h: float = 1e-5) -> float:
    """Worst relative error between d_input and central differences over
    every coordinate of the input batch x."""
    return _worst_relative_error(loss_fn, x, d_input, np.ndindex(x.shape), h)


def _worst_relative_error(loss_fn, base, analytic, coords, h):
    """Central differences of loss_fn at base along each coordinate against
    analytic, with the relative error denominator max(|analytic|,
    |numeric|, 1e-8)."""
    if not 0.0 < h <= 1e-3:
        raise ValueError("h must lie in (0, 1e-3]")
    worst = 0.0
    for k in coords:
        up, down = base.copy(), base.copy()
        up[k] += h
        down[k] -= h
        numeric = (loss_fn(up) - loss_fn(down)) / (2.0 * h)
        exact = float(analytic[k])
        worst = max(worst, abs(exact - numeric) / max(abs(exact), abs(numeric), 1e-8))
    return worst


def module_env(**extra):
    """The environment of a subprocess that imports this checkout's
    clusteralign, plus the given variables."""
    src = str(Path(clusteralign.__file__).resolve().parent.parent)
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
