"""The four training objectives and their exact input-side gradients.

Each loss returns its scalar value together with the gradient w.r.t. the
quantity it consumes (logits, features, or critic outputs); composing
those with the network backward pass yields exact parameter gradients.
The training step takes them from `objective`; the evaluation snapshot,
whose two domains may differ in size, calls the four losses itself. No
loss runs a network: the callers make the student's and the critic's
passes and hand over their outputs. The losses take arrays: features
with one integer label per row (source labels, or the teacher's pseudo
labels), and each loss checks only what it reads.

Every input may carry a leading seed axis (a group of seeds trained
together); each loss then returns one value per seed and gradients with
that axis. A training step also puts a domain axis in front of it: one
stacked_margin_loss call covers every (domain, seed) slice, each slice
its own problem. The clustering kernel's loss-only mode and the
selected-target sum of the adversarial loss run once per slice, so each
seed's bytes are those of a run of that seed alone.
"""

from dataclasses import dataclass

import numpy as np

from clusteralign.kernels import pairwise_margin_loss, stacked_margin_loss
from clusteralign.network import row_index

_EPS = 1e-12


@dataclass(frozen=True)
class LossBundle:
    """Scalar losses and the target selection count of one training step,
    each one value per seed for a group."""

    l_y: float
    l_c: float
    l_a: float
    l_d: float
    selection_count: int


@dataclass(frozen=True)
class ObjectiveGradients:
    """Input-side gradients of one training step's objective. Every field
    but d_logits carries a leading domain axis, source first. d_critic_out
    is d(l_d)/d(critic output), shaped like the critic outputs without
    their last axis."""

    d_logits: np.ndarray
    d_clustering: np.ndarray
    d_alignment: np.ndarray
    d_critic_out: np.ndarray


def cross_entropy(probabilities, labels):
    """Mean negative log-likelihood and its gradient w.r.t. the logits.

    d_logits = (p - onehot(y)) / N, the exact gradient through the
    softmax. Probabilities below 1e-12 are clamped before the log.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    entries = (np.arange(y.size), y.ravel())
    picked = p.reshape(-1, p.shape[-1])[entries].reshape(y.shape)
    loss = -np.log(np.maximum(picked, _EPS)).sum(axis=-1) / y.shape[-1]
    d_logits = p.copy()
    d_logits.reshape(-1, p.shape[-1])[entries] -= 1.0
    return loss, d_logits / y.shape[-1]


def clustering_loss(features, labels, margin: float, *, gradient: bool = True):
    """Pull same-label features together, push different labels past the margin.

    Averages over all ordered sample pairs (self-pairs contribute zero):
    same-label pairs add their squared distance, different-label pairs add
    max(0, margin - squared distance). labels holds one integer per
    feature row; only their equality matters, so any integer dtype will do
    (a narrow one compares fastest). Returns (loss, d_features), or
    (loss, None) with gradient=False (the kernel's loss-only mode).
    Features with leading axes, (..., rows, columns), give one loss per
    matrix; the gradient mode takes them all in one kernel call.
    """
    if margin <= 0:
        raise ValueError("margin must be positive")
    labels = _row_labels(features, labels)
    if gradient:
        return stacked_margin_loss(features, labels, margin)
    values = [pairwise_margin_loss(f, y, margin, gradient=False)[0]
              for f, y in zip(features.reshape((-1,) + features.shape[-2:]),
                              labels.reshape(-1, labels.shape[-1]))]
    return np.asarray(values).reshape(labels.shape[:-1]), None


def alignment_loss(source_features, source_labels, target_features, target_labels,
                   num_classes: int):
    """Squared distance between per-class feature means, averaged over the
    classes present in both domains.

    Each domain's labels hold one integer in [0, num_classes) per feature
    row. Classes missing from either domain contribute nothing (their term
    is removed and the mean runs over the remainder). Returns
    (loss, d_features_source, d_features_target). Each domain takes one
    pass over its rows, every seed of a group at once.
    """
    features = (source_features, target_features)
    labels = [_row_labels(f, y) for f, y in zip(features, (source_labels, target_labels))]
    onehots = [_onehot(y, num_classes) for y in labels]
    # Exact integer counts, one per domain, seed and class. A label outside
    # [0, num_classes) matches no class, so it goes uncounted.
    counts = np.asarray([o.sum(axis=-1, keepdims=True) for o in onehots])
    if counts.sum() != labels[0].size + labels[1].size:
        raise ValueError("labels must lie in [0, num_classes)")
    sums = np.asarray([o @ f for o, f in zip(onehots, features)])
    present = (counts[0] > 0) & (counts[1] > 0)
    n_present = present.sum(axis=-2, keepdims=True)
    np.maximum(counts, 1.0, out=counts)
    means = sums / counts
    gap = np.where(present, means[0] - means[1], 0.0)
    inv_classes = 1.0 / np.maximum(n_present, 1)
    loss = (gap * gap).reshape(gap.shape[:-2] + (-1,)).sum(axis=-1) * inv_classes[..., 0, 0]
    # Each sample moves its own class mean by 1/count of its domain, the
    # target's with the opposite sign (a negation is exact).
    per_class = 2.0 * inv_classes / counts * gap
    per_class[1] *= -1.0
    if not n_present.all():
        # No shared class: no term, and no gradient (not even a negative zero).
        per_class[1][n_present[..., 0, 0] == 0] = 0.0
    d_src, d_tgt = (_class_rows(table, y) for table, y in zip(per_class, labels))
    return loss, d_src, d_tgt


def _row_labels(features, labels):
    """labels as an array, refused unless it holds one integer per row of
    features."""
    labels = np.asarray(labels)
    # Kind i or u: a signed or an unsigned integer dtype.
    if labels.shape != features.shape[:-1] or labels.dtype.kind not in "iu":
        raise ValueError("one integer label per feature row required")
    return labels


def _onehot(labels, k):
    """(..., k, n) float one-hot matrix of (..., n) labels, one row per class id."""
    return (labels[..., None, :] == np.arange(k)[:, None]).astype(np.float64)


def _class_rows(per_class, labels):
    """Row labels[..., j] of each seed's (k, d) per-class table."""
    rows = row_index(labels, per_class.shape[-2])
    return per_class.reshape(-1, per_class.shape[-1])[rows]


def domain_adversarial_loss(source_critic_out, target_critic_out, target_confidences,
                            threshold: float):
    """Confidence-thresholded domain discrepancy.

    loss = mean(log c(source)) + mean over selected targets of
    log(1 - c(target)), where a target is selected when its teacher
    confidence strictly exceeds the threshold. The critic ascends this
    value while the feature extractor descends it. Returns
    (loss, d_source_out, d_target_out, selection_count); the gradients
    are w.r.t. the critic outputs. An empty selection zeroes the target
    term.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    c_src = np.minimum(np.maximum(np.asarray(source_critic_out, np.float64), _EPS), 1.0 - _EPS)
    c_tgt = np.minimum(np.maximum(np.asarray(target_critic_out, np.float64), _EPS), 1.0 - _EPS)
    selected = np.asarray(target_confidences, dtype=np.float64) > threshold
    n_sel = int(np.count_nonzero(selected))

    n_src = c_src.shape[0]
    loss = float(np.log(c_src).sum() / n_src)
    d_src = 1.0 / (n_src * c_src)
    d_tgt = np.zeros_like(c_tgt)
    if n_sel:
        rest = 1.0 - c_tgt[selected]
        loss += float(np.log(rest).sum() / n_sel)
        d_tgt[selected] = -1.0 / (n_sel * rest)
    return loss, d_src, d_tgt, n_sel


def objective(features, source_probabilities, source_y, target_labels, target_confidences,
              critic_outputs, cfg):
    """The four losses of a training step's features on both domains, and
    their input-side gradients; the student descends
    l_y + alpha*(l_c + l_a) + lam*l_d.

    features holds the source's features, then the target's, on a leading
    domain axis, and critic_outputs the critic's (..., rows, 1) outputs on
    them, in the same layout; the domains share one clustering-loss call.
    Target labels and confidences are the teacher's. Only here are the
    labels narrowed for the clustering kernel, and stacked. cfg is a
    trainer.TrainConfig. Returns (LossBundle, ObjectiveGradients).
    """
    num_classes = source_probabilities.shape[-1]
    l_y, d_logits = cross_entropy(source_probabilities, source_y)
    l_a, g_a_src, g_a_tgt = alignment_loss(features[0], source_y, features[1], target_labels,
                                           num_classes)
    # The narrowest dtype that holds every class id compares fastest in the
    # clustering kernel.
    narrow = np.min_scalar_type(num_classes - 1)
    labels = np.asarray((source_y.astype(narrow), target_labels.astype(narrow)))
    l_c, d_clustering = clustering_loss(features, labels, cfg.margin)
    outputs = critic_outputs[..., 0]
    # The selected-target sum is taken per seed: a masked sum over the
    # group would reorder the summation.
    conf = np.asarray(target_confidences, dtype=np.float64)
    per_seed = zip(*(domain_adversarial_loss(c_src, c_tgt, c, cfg.threshold)
                     for c_src, c_tgt, c in zip(*(a.reshape(-1, a.shape[-1])
                                                  for a in (outputs[0], outputs[1], conf)))))
    lead = conf.shape[:-1]
    l_d, d_out_src, d_out_tgt, selected = (
        np.asarray(values).reshape(shape)
        for values, shape in zip(per_seed, (lead, outputs[0].shape, outputs[1].shape, lead)))
    bundle = LossBundle(l_y=l_y, l_c=l_c[0] + l_c[1], l_a=l_a, l_d=l_d,
                        selection_count=selected)
    grads = ObjectiveGradients(d_logits, d_clustering, np.asarray((g_a_src, g_a_tgt)),
                               np.asarray((d_out_src, d_out_tgt)))
    return bundle, grads
