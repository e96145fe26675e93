"""Cluster-aligned unsupervised domain adaptation on desk-scale problems.

A labeled source domain plus an unlabeled target domain are adapted by a
small feedforward classifier trained with four objectives: supervised
cross-entropy, a pairwise discriminative clustering loss, a per-class
feature-mean alignment loss, and a confidence-thresholded adversarial
discrepancy loss driven through gradient reversal. Pseudo labels for the
target domain come from a teacher classifier (a temporal ensemble or a
second stochastic forward pass of the student).
"""

from clusteralign.network import (
    DomainError,
    ForwardTrace,
    Network,
    NetworkSpec,
    ShapeError,
    backward,
    forward,
    init_network,
    reverse_gradient,
    sgd_step,
)
from clusteralign.data import (
    BatchPair,
    DomainDataset,
    dump_dataset_csv,
    load_idx,
    make_imbalanced_gaussians,
    make_multimode_domains,
)
from clusteralign.losses import (
    LossBundle,
    alignment_loss,
    clustering_loss,
    cross_entropy,
    domain_adversarial_loss,
    objective,
)
from clusteralign.teacher import (
    TeacherState,
    corrected_probabilities,
    init_teacher,
    pi_predict,
    pseudo_labels,
)
from clusteralign.trainer import (
    TrainConfig,
    TrainState,
    alpha_logistic,
    init_train_state,
    lr_schedule,
    train,
    train_step,
)
from clusteralign.evaluate import (
    RunMetrics,
    cluster_accuracy,
    jsd_proxy,
    selection_rate,
)

__version__ = "0.1.0"
