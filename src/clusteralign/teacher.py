"""The teacher classifier: an implicit ensemble of the student.

Three modes (TrainConfig.teacher_mode). "pi" re-runs the student with
fresh dropout noise and uses that second pass as the teacher prediction.
"temporal" keeps a decayed running average of past student predictions
per target sample, read back with bias correction so early averages are
not shrunk toward zero. "self", the no_teacher ablation, uses the
student's own prediction. Gradients never flow through teacher
predictions.
"""

from dataclasses import dataclass

import numpy as np

from clusteralign.network import Network, forward

TEACHER_MODES = ("pi", "temporal", "self")


@dataclass(frozen=True)
class TeacherState:
    ensemble: np.ndarray
    step_counts: np.ndarray
    decay: float = 0.6

    def __post_init__(self):
        if not 0.0 <= self.decay < 1.0:
            raise ValueError("decay must lie in [0, 1)")


def init_teacher(num_target: int, num_classes: int, decay: float = 0.6) -> TeacherState:
    return TeacherState(
        np.zeros((num_target, num_classes)),
        np.zeros(num_target, dtype=np.int64),
        float(decay),
    )


def pi_predict(net: Network, target_x, noise_seed: int) -> np.ndarray:
    """Teacher probabilities from an independent train-mode pass.

    With dropout disabled the pass is deterministic and the teacher
    coincides with the student.
    """
    return forward(net, target_x, mode="train", noise_seed=noise_seed).probabilities


def temporal_update(state: TeacherState, indices, probabilities) -> TeacherState:
    """Fold a batch of predictions into the running ensemble.

    ensemble[i] <- decay * ensemble[i] + (1 - decay) * p[i] for each
    batch sample, and its update count increments.
    """
    idx = np.asarray(indices, dtype=np.int64)
    probs = np.asarray(probabilities, dtype=np.float64)
    if idx.shape[0] != probs.shape[0]:
        raise ValueError("one probability row per index required")
    if idx.size and (idx.min() < 0 or idx.max() >= state.ensemble.shape[0]):
        raise IndexError("teacher update index out of range")
    ensemble = state.ensemble.copy()
    counts = state.step_counts.copy()
    ensemble[idx] = state.decay * ensemble[idx] + (1.0 - state.decay) * probs
    counts[idx] += 1
    return TeacherState(ensemble, counts, state.decay)


def corrected_probabilities(state: TeacherState, indices=None) -> np.ndarray:
    """Bias-corrected ensemble rows; never-updated rows stay all zero.

    With indices, only those rows are read (in that order, repeats
    allowed); the result equals the full table indexed the same way.
    """
    ensemble, counts = state.ensemble, state.step_counts
    if indices is not None:
        idx = np.asarray(indices, dtype=np.int64)
        ensemble, counts = ensemble[idx], counts[idx]
    probs = np.zeros_like(ensemble)
    seen = counts > 0
    corr = 1.0 - state.decay ** counts[seen]
    probs[seen] = ensemble[seen] / corr[:, None]
    return probs


def pseudo_labels(probabilities):
    """Argmax labels and max-probability confidences of a probability matrix.

    Ties break toward the smallest class id. Temporal rows never updated
    (all zero in corrected_probabilities) report label 0 with confidence
    0, which cannot occur for a real probability row.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    labels = np.argmax(probs, axis=1).astype(np.int64)
    confidences = probs[np.arange(probs.shape[0]), labels]
    return labels, confidences
