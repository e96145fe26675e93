"""The full training loop: schedules, loss composition, adversarial updates.

Every step runs, in order: student train-mode forwards on both domains, a
teacher read (and temporal update), pseudo labeling, the four losses, one
shared gradient composition, and simultaneous momentum-SGD updates of the
student and the critic. The critic ascends the domain discrepancy while
the student descends it; the student picks that term up through the
gradient-reversal connector on the feature path. During the pretraining
phase the clustering, alignment, and adversarial weights are exactly zero
for the student (the critic itself keeps learning, so its divergence
estimate is meaningful by the time adaptation starts).

A whole run is a pure function of (config, dataset): every random draw is
seeded from the config seed and the iteration counter.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from clusteralign.data import BatchPair, DomainDataset, iterate_batches
from clusteralign.evaluate import snapshot
from clusteralign.losses import METRICS, objective
from clusteralign.network import (
    FEATURE_TAPS,
    Network,
    NetworkSpec,
    OptimizerState,
    backward,
    forward,
    init_network,
    init_optimizer,
    reverse_gradient,
    sgd_step,
)
from clusteralign.seeding import derive_seed
from clusteralign.teacher import (
    TEACHER_MODES,
    TeacherState,
    corrected_probabilities,
    init_teacher,
    pi_predict,
    pseudo_labels,
    temporal_update,
)

ALPHA_SCHEDULES = ("logistic", "exp_ramp", "constant")
LAMBDA_SCHEDULES = ("same_as_alpha", "constant")


class TrainingAbort(RuntimeError):
    """A loss or parameter went non-finite; carries a diagnostic snapshot."""

    def __init__(self, message, details):
        super().__init__(message)
        self.details = details


def alpha_logistic(t: float) -> float:
    """Ramp 2/(1+exp(-10t)) - 1 on t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    return 2.0 / (1.0 + math.exp(-10.0 * t)) - 1.0


def alpha_exp_ramp(ite: int, start: int, length: int) -> float:
    """Exponential ramp exp(-10*(1 - min((ite-start)/length, 1))) once ite
    reaches start; zero before."""
    if length <= 0:
        raise ValueError("length must be positive")
    if ite < start:
        return 0.0
    return math.exp(-10.0 * (1.0 - min((ite - start) / length, 1.0)))


def lr_schedule(progress: float, base: float) -> float:
    """Annealed learning rate base / (1 + 10*progress)^0.75."""
    if not 0.0 <= progress <= 1.0:
        raise ValueError("progress must lie in [0, 1]")
    return base / (1.0 + 10.0 * progress) ** 0.75


@dataclass(frozen=True)
class TrainConfig:
    """All knobs of one training run.

    The schedule weights alpha (clustering + alignment) and lam
    (adversarial) are exactly zero while iteration < pretrain_iters. The
    use_* switches and teacher_mode "self" (the student labels its own
    targets) exist for ablations.
    """

    total_iters: int = 5000
    pretrain_iters: int = 500
    batch_source: int = 64
    batch_target: int = 64
    margin: float = 3.0
    threshold: float = 0.9
    alpha_schedule: str = "logistic"
    alpha_max: float = 1.0
    lambda_schedule: str = "same_as_alpha"
    lambda_max: float = 1.0
    ramp_length: int = 0
    lr_base: float = 0.01
    momentum: float = 0.9
    teacher_mode: str = "temporal"
    decay: float = 0.6
    seed: int = 0
    critic_hidden: int = 16
    hidden_layers: tuple = (16, 16)
    activation: str = "relu"
    dropout_rate: float = 0.1
    feature_tap: str = ""
    metric: str = "sq_euclidean"
    use_clustering: bool = True
    use_alignment: bool = True

    def __post_init__(self):
        if self.pretrain_iters < 0 or self.total_iters <= self.pretrain_iters:
            raise ValueError("pretrain_iters must lie in [0, total_iters)")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if not self.margin > 0:
            raise ValueError("margin must be positive")
        if not self.lr_base > 0:
            raise ValueError("lr_base must be positive")
        for name in ("batch_source", "batch_target", "critic_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if any(size < 1 for size in self.hidden_layers):
            raise ValueError("hidden_layers must hold sizes of at least 1")
        for name, known in (("alpha_schedule", ALPHA_SCHEDULES),
                            ("lambda_schedule", LAMBDA_SCHEDULES),
                            ("teacher_mode", TEACHER_MODES),
                            ("metric", METRICS)):
            if getattr(self, name) not in known:
                raise ValueError(f"{name} must be one of {', '.join(known)}; "
                                 f"got {getattr(self, name)!r}")
        for name in ("alpha_max", "lambda_max", "ramp_length"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.feature_tap not in ("",) + FEATURE_TAPS:
            raise ValueError(f"feature_tap must be one of {', '.join(FEATURE_TAPS)} or \"\" "
                             f"(automatic: logits for 2 classes, penultimate otherwise); "
                             f"got {self.feature_tap!r}")
        object.__setattr__(self, "hidden_layers", tuple(self.hidden_layers))


@dataclass
class TrainState:
    student: Network
    critic: Network
    student_opt: OptimizerState
    critic_opt: OptimizerState
    teacher: TeacherState
    iteration: int = 0


def resolve_feature_tap(cfg: TrainConfig, num_classes: int) -> str:
    if cfg.feature_tap:
        return cfg.feature_tap
    return "logits" if num_classes == 2 else "penultimate"


def init_train_state(cfg: TrainConfig, ds: DomainDataset) -> TrainState:
    for name, rows in (("batch_source", ds.source_x.shape[0]),
                       ("batch_target", ds.target_x.shape[0])):
        if getattr(cfg, name) > rows:
            raise ValueError(f"{name} must not exceed the {rows} samples of its domain")
    tap = resolve_feature_tap(cfg, ds.num_classes)
    student_spec = NetworkSpec(
        layer_sizes=(ds.source_x.shape[1], *cfg.hidden_layers, ds.num_classes),
        activation=cfg.activation,
        dropout_rate=cfg.dropout_rate,
        feature_tap=tap,
    )
    critic_spec = NetworkSpec(
        layer_sizes=(student_spec.feature_dim, cfg.critic_hidden, cfg.critic_hidden, 1),
        activation="relu",
        dropout_rate=0.0,
        feature_tap="penultimate",
        head="sigmoid",
    )
    student = init_network(student_spec, derive_seed(cfg.seed, 11))
    critic = init_network(critic_spec, derive_seed(cfg.seed, 13))
    teacher = init_teacher(ds.target_x.shape[0], ds.num_classes, cfg.decay)
    return TrainState(
        student=student,
        critic=critic,
        student_opt=init_optimizer(student, cfg.momentum),
        critic_opt=init_optimizer(critic, cfg.momentum),
        teacher=teacher,
    )


def schedule_weights(cfg: TrainConfig, iteration: int):
    """The (alpha, lam) pair applied at a given iteration."""
    if iteration < cfg.pretrain_iters:
        return 0.0, 0.0
    span = max(1, cfg.total_iters - cfg.pretrain_iters)
    if cfg.alpha_schedule == "logistic":
        t = min(1.0, (iteration - cfg.pretrain_iters) / span)
        shape = alpha_logistic(t)
    elif cfg.alpha_schedule == "exp_ramp":
        length = cfg.ramp_length if cfg.ramp_length > 0 else span
        shape = alpha_exp_ramp(iteration, cfg.pretrain_iters, length)
    else:
        shape = 1.0
    alpha = cfg.alpha_max * shape
    if cfg.lambda_schedule == "same_as_alpha":
        lam = cfg.lambda_max * shape
    else:
        lam = cfg.lambda_max
    return alpha, lam


def _noise_seed(state: TrainState, cfg: TrainConfig, slot: int) -> int:
    """The dropout seed of one student train-mode pass, derived only when
    the student draws a mask (forward ignores the seed otherwise)."""
    if state.student.spec.dropout_rate > 0.0:
        return derive_seed(cfg.seed, state.iteration, slot)
    return 0


def train_step(state: TrainState, batch: BatchPair, cfg: TrainConfig):
    """One optimization step; returns the advanced state and its losses.

    The parameters are checked on entry and the losses after the update;
    the parameters a step produces are checked when the next step or a
    snapshot reads them (every run ends on a snapshot).
    """
    _check_parameters(state)
    it = state.iteration
    alpha, lam = schedule_weights(cfg, it)
    lr = lr_schedule(it / cfg.total_iters, cfg.lr_base)

    trace_src = forward(state.student, batch.source_x, "train", _noise_seed(state, cfg, 1))
    trace_tgt = forward(state.student, batch.target_x, "train", _noise_seed(state, cfg, 2))

    # The teacher's view of the target batch is read before any update.
    new_teacher = state.teacher
    if cfg.teacher_mode == "self":
        teacher_probs = trace_tgt.probabilities
    elif cfg.teacher_mode == "pi":
        teacher_probs = pi_predict(state.student, batch.target_x, _noise_seed(state, cfg, 3))
    else:
        teacher_probs = corrected_probabilities(state.teacher, batch.target_indices)
        new_teacher = temporal_update(
            state.teacher, batch.target_indices, trace_tgt.probabilities
        )
    tgt_labels, tgt_conf = pseudo_labels(teacher_probs)

    bundle, grads = objective(trace_src, trace_tgt, batch.source_y, tgt_labels, tgt_conf,
                              state.critic, cfg)

    # The critic descends the negated discrepancy (so it maximizes l_d);
    # the reversal connector then hands the student +lam * d(l_d)/d(features).
    student_grads = backward(state.student, trace_src, grads.d_logits, "logits")
    critic_parts = []
    for trace, critic_trace, d_out, g_c, g_a in zip(
            (trace_src, trace_tgt), grads.critic_traces, grads.d_critic_out,
            grads.d_clustering, grads.d_alignment):
        critic_part = backward(state.critic, critic_trace, -d_out[:, None], "probabilities")
        critic_parts.append(critic_part)
        d_feat = reverse_gradient(critic_part.d_input, lam)
        if cfg.use_clustering:
            d_feat += alpha * g_c
        if cfg.use_alignment:
            d_feat += alpha * g_a
        if np.any(d_feat):
            student_grads = student_grads + backward(state.student, trace, d_feat, "features")
    critic_grads = critic_parts[0] + critic_parts[1]

    new_student, new_student_opt = sgd_step(state.student, state.student_opt, student_grads, lr)
    new_critic, new_critic_opt = sgd_step(state.critic, state.critic_opt, critic_grads, lr)
    _check_losses(bundle, it)

    new_state = TrainState(
        student=new_student,
        critic=new_critic,
        student_opt=new_student_opt,
        critic_opt=new_critic_opt,
        teacher=new_teacher,
        iteration=it + 1,
    )
    return new_state, bundle


def _check_parameters(state: TrainState):
    for net, name in ((state.student, "student"), (state.critic, "critic")):
        if not all(np.isfinite(p).all() for p in net.weights + net.biases):
            raise TrainingAbort(
                f"non-finite {name} parameters at iteration {state.iteration}",
                {"iteration": state.iteration, "parameter_set": name},
            )


def _check_losses(bundle, iteration):
    if not all(math.isfinite(v) for v in (bundle.l_y, bundle.l_c, bundle.l_a, bundle.l_d)):
        raise TrainingAbort(
            f"non-finite loss at iteration {iteration}",
            {
                "iteration": iteration,
                "l_y": bundle.l_y,
                "l_c": bundle.l_c,
                "l_a": bundle.l_a,
                "l_d": bundle.l_d,
                "selection_count": bundle.selection_count,
            },
        )


def run_training(cfg: TrainConfig, ds: DomainDataset, eval_every: int):
    """Train to completion; returns (final state, metrics log, final view).

    The log holds one entry for iteration 0, one after every eval_every-th
    step and one for the final state; the final view is that state's
    evaluate.StateView.
    """
    if eval_every < 1:
        raise ValueError("eval_every must be at least 1")
    batch_seed = derive_seed(cfg.seed, 17)
    batches = itertools.chain.from_iterable(
        iterate_batches(ds, cfg.batch_source, cfg.batch_target, batch_seed, epoch)
        for epoch in itertools.count()
    )
    state = init_train_state(cfg, ds)
    metrics = []
    while True:
        if state.iteration % eval_every == 0 or state.iteration == cfg.total_iters:
            _check_parameters(state)
            row, view = snapshot(state, cfg, ds)
            metrics.append(row)
        if state.iteration == cfg.total_iters:
            return state, metrics, view
        state, _ = train_step(state, next(batches), cfg)


def train(cfg: TrainConfig, ds: DomainDataset, eval_every: int):
    """Run the full schedule and return the metrics log."""
    return run_training(cfg, ds, eval_every)[1]
