"""Evaluation and monitoring: accuracies, k-means probes, divergence proxy.

Everything here works on snapshots without dropout (apart from the Pi
teacher's pass, which draws its own seeded stream) and is deterministic
for a given seed; this module is the only reader of the hidden target
labels.
"""

from dataclasses import dataclass

import numpy as np

from clusteralign.kernels import kmeans_assign
from clusteralign.losses import (
    alignment_loss,
    clustering_loss,
    cross_entropy,
    domain_adversarial_loss,
)
from clusteralign.network import forward
from clusteralign.seeding import derive_seed, seeded_rng
from clusteralign.teacher import corrected_probabilities, pi_predict, pseudo_labels

# The most Lloyd updates one k-means restart takes.
_LLOYD_ITERS = 100


@dataclass(frozen=True)
class RunMetrics:
    """One evaluation point of a training run."""

    iteration: int
    target_acc: float
    source_acc: float
    cluster_acc: float
    jsd_proxy: float
    selection_rate: float
    l_y: float
    l_c: float
    l_a: float
    l_d: float


def _kmeans_pp_centers(features, k, rng):
    n = features.shape[0]
    centers = np.empty((k, features.shape[1]))
    centers[0] = features[rng.integers(n)]
    d2 = ((features - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[c] = features[idx]
        d2 = np.minimum(d2, ((features - centers[c]) ** 2).sum(axis=1))
    return centers


def _lloyd(features, k, seed):
    rng = seeded_rng(seed)
    centers = _kmeans_pp_centers(features, k, rng)
    assignments, inertia = kmeans_assign(features, centers)
    for _ in range(_LLOYD_ITERS):
        new_centers = centers.copy()
        for c in range(k):
            members = assignments == c
            if members.any():
                new_centers[c] = features[members].mean(axis=0)
            else:
                # Re-seed an empty cluster at the point farthest from its center.
                dist = ((features - new_centers[assignments]) ** 2).sum(axis=1)
                new_centers[c] = features[int(np.argmax(dist))]
        new_assignments, new_inertia = kmeans_assign(features, new_centers)
        if new_inertia > inertia + 1e-9:
            # Features so large that a rounded cluster mean lies farther from
            # its members than its seed point can make the first update worse.
            raise FloatingPointError(f"k-means inertia increased from {inertia:.6g} "
                                     f"to {new_inertia:.6g}")
        centers = new_centers
        if np.array_equal(new_assignments, assignments):
            assignments, inertia = new_assignments, new_inertia
            break
        assignments, inertia = new_assignments, new_inertia
    return assignments, inertia


def kmeans_best(features, k: int, seed: int, restarts: int = 5):
    """Lowest-inertia assignments over several seeded restarts. Features
    too large for the search raise FloatingPointError: a sum that
    overflows, or a Lloyd update whose rounded centers raise the inertia."""
    features = np.asarray(features, dtype=np.float64)
    best = None
    best_inertia = np.inf
    with np.errstate(over="raise"):
        for r in range(restarts):
            assignments, inertia = _lloyd(features, k, derive_seed(seed, r))
            if inertia < best_inertia:
                best, best_inertia = assignments, inertia
    return best


def cluster_accuracy(assignments, true_labels) -> float:
    """Label each cluster by its most frequent true label (ties toward the
    smallest label), then score the fraction of matching points."""
    assignments = np.asarray(assignments)
    true_labels = np.asarray(true_labels)
    if assignments.shape != true_labels.shape:
        raise ValueError("assignments and labels must have the same length")
    # A (cluster, label) count table from np.bincount, not a loop over
    # np.unique, which imports numpy.ma (1.2 MiB) into the process; integer
    # sums are exact in any order.
    num_labels = int(true_labels.max()) + 1
    table = np.bincount(assignments * num_labels + true_labels,
                        minlength=(int(assignments.max()) + 1) * num_labels)
    correct = table.reshape(-1, num_labels).max(axis=1).sum()
    return float(correct) / len(true_labels)


def jsd_proxy(l_d: float) -> float:
    """Divergence estimate 0.5 * l_d + ln 2 (zero for an uninformative critic)."""
    return 0.5 * l_d + float(np.log(2.0))


def selection_rate(confidences, threshold: float) -> float:
    """Fraction of confidences strictly above the threshold."""
    conf = np.asarray(confidences, dtype=np.float64)
    if conf.size == 0:
        return 0.0
    return float(np.mean(conf > threshold))


@dataclass(frozen=True)
class StateView:
    """The full-dataset arrays of one evaluated state that the features
    export writes."""

    source_features: np.ndarray
    source_probabilities: np.ndarray
    target_features: np.ndarray
    teacher_labels: np.ndarray
    teacher_confidences: np.ndarray


def snapshot(state, cfg, ds) -> tuple[RunMetrics, StateView]:
    """Evaluate one training state on the full dataset; returns its
    RunMetrics and StateView.

    state is a trainer.TrainState and cfg its TrainConfig. The Pi
    teacher's dropout pass draws the stream of slot 4 in the dropout
    plan's key layout, seeded_rng(derive_seed(cfg.seed, state.iteration,
    4)), which no step draws (seeding lists every key).
    The logged l_d applies the current confidence selection; the JSD proxy
    is computed from a separate all-selected pass so the monitor stays
    comparable across training. Both networks make one untraced pass per
    domain, and the two domains may differ in size, so the four logged
    losses come from the loss functions themselves, one clustering-loss
    call per domain: the logged l_c comes from the clustering kernel's
    loss-only mode, which uses no BLAS.
    """
    # Untraced passes: evaluation reads only features and probabilities.
    src = forward(state.student, ds.source_x, traced=False)
    tgt = forward(state.student, ds.target_x, traced=False)

    src_acc = float(np.mean(np.argmax(src.probabilities, axis=1) == ds.source_y))
    tgt_acc = float(np.mean(np.argmax(tgt.probabilities, axis=1) == ds.target_y_hidden))

    if cfg.teacher_mode == "self":
        teacher_probs = tgt.probabilities
    elif cfg.teacher_mode == "pi":
        count = ds.target_x.shape[0] * sum(state.student.spec.layer_sizes[1:-1])
        rng = seeded_rng(derive_seed(cfg.seed, state.iteration, 4))
        teacher_probs = pi_predict(state.student, ds.target_x, rng.random((1, count)))
    else:
        teacher_probs = corrected_probabilities(state.teacher, cfg.decay)
    labels, confidences = pseudo_labels(teacher_probs)
    del teacher_probs

    c_src, c_tgt = (forward(state.critic, d.features, traced=False).probabilities[:, 0]
                    for d in (src, tgt))
    l_y, _ = cross_entropy(src.probabilities, ds.source_y)
    l_a, _, _ = alignment_loss(src.features, ds.source_y, tgt.features, labels, ds.num_classes)
    l_c_src, l_c_tgt = (clustering_loss(d.features, y, cfg.margin, gradient=False)[0]
                        for d, y in ((src, ds.source_y), (tgt, labels)))
    l_d, _, _, _ = domain_adversarial_loss(c_src, c_tgt, confidences, cfg.threshold)
    l_d_all, _, _, _ = domain_adversarial_loss(c_src, c_tgt, np.ones_like(c_tgt), 0.0)

    combined = np.vstack([src.features, tgt.features])
    true_labels = np.concatenate([ds.source_y, ds.target_y_hidden])
    assignments = kmeans_best(combined, ds.num_classes,
                              derive_seed(cfg.seed, 29, state.iteration))
    cluster_acc = cluster_accuracy(assignments, true_labels)

    metrics = RunMetrics(
        iteration=int(state.iteration),
        target_acc=tgt_acc,
        source_acc=src_acc,
        cluster_acc=cluster_acc,
        jsd_proxy=jsd_proxy(l_d_all),
        selection_rate=selection_rate(confidences, cfg.threshold),
        l_y=float(l_y),
        l_c=float(l_c_src + l_c_tgt),
        l_a=float(l_a),
        l_d=l_d,
    )
    view = StateView(src.features, src.probabilities, tgt.features, labels, confidences)
    return metrics, view
