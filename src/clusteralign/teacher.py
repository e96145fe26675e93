"""The teacher classifier: an implicit ensemble of the student.

Three modes (TrainConfig.teacher_mode). "pi" re-runs the student with
fresh dropout noise and uses that second pass as the teacher prediction.
"temporal" keeps a decayed running average of past student predictions
per target sample, read back with bias correction so early averages are
not shrunk toward zero. "self", the no_teacher ablation, uses the
student's own prediction. Gradients never flow through teacher
predictions. A group of seeds stacks its ensembles, step counts, batch
indices and predictions along a leading seed axis. A training step reads
and updates the temporal ensemble in one pass over its batch rows
(temporal_step); a snapshot reads the whole table
(corrected_probabilities).
"""

from dataclasses import dataclass

import numpy as np

from clusteralign.network import Network, forward, reduce_rows, row_index

TEACHER_MODES = ("pi", "temporal", "self")


@dataclass(frozen=True)
class TeacherState:
    ensemble: np.ndarray
    step_counts: np.ndarray
    decay: float

    def __post_init__(self):
        if not 0.0 <= self.decay < 1.0:
            raise ValueError("decay must lie in [0, 1)")


def init_teacher(num_target: int, num_classes: int, decay: float) -> TeacherState:
    return TeacherState(
        np.zeros((num_target, num_classes)),
        np.zeros(num_target, dtype=np.int64),
        float(decay),
    )


def pi_predict(net: Network, target_x, noise) -> np.ndarray:
    """Teacher probabilities from an independent train-mode pass whose
    dropout noise (as in network.forward) is noise.

    With dropout disabled the pass is deterministic and the teacher
    coincides with the student.
    """
    return forward(net, target_x, mode="train", noise=noise, traced=False).probabilities


def temporal_step(state: TeacherState, indices, probabilities):
    """Read a batch's rows of the ensemble and fold the batch's predictions
    into them, from one read of those rows: returns (the bias-corrected
    rows before the update, as corrected_probabilities gives them, and
    the updated state).

    The update sets ensemble[i] <- decay * ensemble[i] + (1 - decay) * p[i]
    for each batch sample and increments its count. indices and
    probabilities carry the state's leading seed axis, if any, and the
    indices must lie in range (a training step's batch).
    """
    num_rows, num_classes = state.ensemble.shape[-2:]
    rows = row_index(indices, num_rows)
    ensemble = state.ensemble.copy()
    counts = state.step_counts.copy()
    flat, flat_counts = ensemble.reshape(-1, num_classes), counts.reshape(-1)
    old, old_counts = flat[rows], flat_counts[rows]
    read = _corrected(old, old_counts, state.decay)
    # Repeated indices write the same count and their last row.
    flat[rows] = state.decay * old + (1.0 - state.decay) * probabilities
    flat_counts[rows] = old_counts + 1
    return read, TeacherState(ensemble, counts, state.decay)


def _corrected(ensemble, counts, decay):
    # A never-updated row is all +0.0, and stays so divided by 1.
    return ensemble / np.where(counts > 0, 1.0 - decay ** counts, 1.0)[..., None]


def corrected_probabilities(state: TeacherState) -> np.ndarray:
    """The bias-corrected ensemble table; never-updated rows stay all zero."""
    return _corrected(state.ensemble, state.step_counts, state.decay)


def pseudo_labels(probabilities):
    """Argmax labels and max-probability confidences of a probability matrix.

    Ties break toward the smallest class id. Temporal rows never updated
    (all zero in corrected_probabilities) report label 0 with confidence
    0, which cannot occur for a real probability row.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    labels = np.argmax(probs, axis=-1).astype(np.int64, copy=False)
    # The maximum is the entry at the argmax, bit for bit.
    return labels, reduce_rows(np.maximum, probs)[..., 0]
