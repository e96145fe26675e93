"""The four training objectives and their exact input-side gradients.

Each loss returns its scalar value together with the gradient w.r.t. the
quantity it consumes (logits, features, or critic outputs); composing
those with the network backward pass yields exact parameter gradients.
The training step and the evaluation snapshot both take them from
`objective`.
"""

from dataclasses import dataclass

import numpy as np

from clusteralign.kernels import pairwise_margin_loss
from clusteralign.network import forward

_EPS = 1e-12
METRICS = ("sq_euclidean", "euclidean")


@dataclass(frozen=True)
class PseudoLabeledBatch:
    """Features with per-sample class labels.

    Labels are ground truth for source batches and teacher-assigned for
    target batches.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if self.features.shape[0] != labels.shape[0]:
            raise ValueError("one label per feature row required")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError("labels must lie in [0, num_classes)")


@dataclass(frozen=True)
class LossBundle:
    """Scalar losses and the target selection count of one training step."""

    l_y: float
    l_c: float
    l_a: float
    l_d: float
    selection_count: int


@dataclass(frozen=True)
class ObjectiveGradients:
    """Input-side gradients of one objective; each pair is (source, target).
    d_critic_out is d(l_d)/d(critic output) of each critic trace."""

    d_logits: np.ndarray
    d_clustering: tuple
    d_alignment: tuple
    critic_traces: tuple
    d_critic_out: tuple


def cross_entropy(probabilities, labels):
    """Mean negative log-likelihood and its gradient w.r.t. the logits.

    d_logits = (p - onehot(y)) / N, the exact gradient through the
    softmax. Probabilities below 1e-12 are clamped before the log.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n = p.shape[0]
    picked = p[np.arange(n), y]
    loss = -np.log(np.maximum(picked, _EPS)).mean()
    d_logits = p.copy()
    d_logits[np.arange(n), y] -= 1.0
    return float(loss), d_logits / n


def clustering_loss(batch: PseudoLabeledBatch, margin: float, metric: str = "sq_euclidean"):
    """Pull same-label features together, push different labels past the margin.

    Averages over all ordered sample pairs (self-pairs contribute zero):
    same-label pairs add their distance, different-label pairs add
    max(0, margin - distance). Returns (loss, d_features).
    """
    if margin <= 0:
        raise ValueError("margin must be positive")
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    loss, grad = pairwise_margin_loss(
        batch.features, batch.labels, margin, squared=metric == "sq_euclidean"
    )
    return float(loss), grad


def alignment_loss(source: PseudoLabeledBatch, target: PseudoLabeledBatch):
    """Squared distance between per-class feature means, averaged over the
    classes present in both batches.

    Classes missing from either batch contribute nothing (their term is
    removed and the mean runs over the remainder). Returns
    (loss, d_features_source, d_features_target).
    """
    if source.num_classes != target.num_classes:
        raise ValueError("batches must share the class count")
    k = source.num_classes
    src_counts = np.bincount(source.labels, minlength=k)
    tgt_counts = np.bincount(target.labels, minlength=k)
    present = (src_counts > 0) & (tgt_counts > 0)
    n_present = int(present.sum())
    if not n_present:
        return 0.0, np.zeros_like(source.features), np.zeros_like(target.features)

    src_n = np.maximum(src_counts, 1)[:, None]
    tgt_n = np.maximum(tgt_counts, 1)[:, None]
    gap = _class_sums(source, k) / src_n - _class_sums(target, k) / tgt_n
    gap[~present] = 0.0
    inv_classes = 1.0 / n_present
    loss = float((gap * gap).sum()) * inv_classes
    # Each sample moves its own class mean by 1/count of its domain.
    d_src = (2.0 * inv_classes / src_n * gap)[source.labels]
    d_tgt = (-2.0 * inv_classes / tgt_n * gap)[target.labels]
    return loss, d_src, d_tgt


def _class_sums(batch: PseudoLabeledBatch, k: int):
    """Per-class feature sums, one row per class id."""
    onehot = batch.labels[None, :] == np.arange(k)[:, None]
    return onehot.astype(np.float64) @ batch.features


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
    c_src = np.clip(np.asarray(source_critic_out, np.float64), _EPS, 1.0 - _EPS)
    c_tgt = np.clip(np.asarray(target_critic_out, np.float64), _EPS, 1.0 - _EPS)
    conf = np.asarray(target_confidences, dtype=np.float64)
    selected = conf > threshold
    n_sel = int(selected.sum())

    n_src = c_src.shape[0]
    loss = float(np.log(c_src).mean())
    d_src = 1.0 / (n_src * c_src)
    d_tgt = np.zeros_like(c_tgt)
    if n_sel:
        loss += float(np.log(1.0 - c_tgt[selected]).sum() / n_sel)
        d_tgt[selected] = -1.0 / (n_sel * (1.0 - c_tgt[selected]))
    return loss, d_src, d_tgt, n_sel


def objective(source_trace, target_trace, source_y, target_labels, target_confidences,
              critic, cfg):
    """The four losses of a pair of student traces, which the student
    descends as l_y + alpha*(l_c + l_a) + lam*l_d.

    Target labels and confidences are the teacher's; the critic (no
    dropout) runs one eval pass per domain. cfg is a trainer.TrainConfig.
    Returns (LossBundle, ObjectiveGradients).
    """
    num_classes = source_trace.probabilities.shape[1]
    src = PseudoLabeledBatch(source_trace.features, source_y, num_classes)
    tgt = PseudoLabeledBatch(target_trace.features, target_labels, num_classes)
    l_y, d_logits = cross_entropy(source_trace.probabilities, source_y)
    l_c_src, g_c_src = clustering_loss(src, cfg.margin, cfg.metric)
    l_c_tgt, g_c_tgt = clustering_loss(tgt, cfg.margin, cfg.metric)
    l_a, g_a_src, g_a_tgt = alignment_loss(src, tgt)
    critic_src = forward(critic, source_trace.features)
    critic_tgt = forward(critic, target_trace.features)
    l_d, d_out_src, d_out_tgt, selected = domain_adversarial_loss(
        critic_src.probabilities[:, 0], critic_tgt.probabilities[:, 0],
        target_confidences, cfg.threshold,
    )
    bundle = LossBundle(l_y=l_y, l_c=l_c_src + l_c_tgt, l_a=l_a, l_d=l_d,
                        selection_count=selected)
    grads = ObjectiveGradients(d_logits, (g_c_src, g_c_tgt), (g_a_src, g_a_tgt),
                               (critic_src, critic_tgt), (d_out_src, d_out_tgt))
    return bundle, grads
