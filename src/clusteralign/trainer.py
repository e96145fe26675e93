"""The full training loop: schedules, loss composition, adversarial updates.

Every step runs, in order: the student's train-mode forward over both
domains, the critic's eval forward on its features, the teacher read (and
temporal update) and pseudo labels, the four losses, the critic's
backward, the student's feature backward, and momentum-SGD updates of
both networks. On a leading domain axis, source first, the student's
forward and feature backward, the critic's forward and backward, and the
clustering kernel each run once per step; each (domain, seed) slice keeps
its own gemms, row sums and dropout generator. Both batches have one
size (TrainConfig refuses batch_target != batch_source), so every step
takes this one layout. The critic ascends the domain discrepancy while
the student descends it; the student picks that term up through the
gradient-reversal connector on the feature path.
During the pretraining phase the clustering, alignment, and adversarial
weights are exactly zero for the student (the critic itself keeps
learning, so its divergence estimate is meaningful by the time
adaptation starts).

A whole run is a pure function of (config, dataset): every random draw is
seeded from the config seed and the iteration counter. A dropout mask's
uniforms come from seeded_rng(derive_seed(seed, iteration, slot)); a run
hashes those keys for a block of _PLAN_BLOCK iterations at once
(_DropoutPlan, built when run_training starts) and replays each stream
from its PCG64 state, so no generator is constructed per step.

The seeds of one experiment train together as a group: their states,
momentum buffers, temporal ensembles and batches are stacked along a
leading seed axis, and one step advances every seed. A lone seed is a
group of one and keeps the axis. Each seed's slice holds the bytes that
its own 2-D state (init_train_state), stepped alone, would hold. A group
gathers its batches a whole epoch at a time, from each seed's own
shuffle.
"""

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from clusteralign.data import BatchPair, DomainDataset, batch_indices
from clusteralign.evaluate import snapshot
from clusteralign.losses import objective
from clusteralign.network import (
    FEATURE_TAPS,
    DomainError,
    GradientSet,
    Network,
    NetworkSpec,
    ShapeError,
    backward,
    forward,
    init_network,
    reverse_gradient,
    sgd_step,
)
from clusteralign.seeding import Streams, derive_seed, derived_rng_states
from clusteralign.teacher import (
    TEACHER_MODES,
    TeacherState,
    init_teacher,
    pi_predict,
    pseudo_labels,
    temporal_step,
)

ALPHA_SCHEDULES = ("logistic", "exp_ramp", "constant")
LAMBDA_SCHEDULES = ("same_as_alpha", "constant")
# The dropout generator states of this many iterations are hashed at once.
_PLAN_BLOCK = 64


class TrainingAbort(RuntimeError):
    """A loss or parameter went non-finite, or a snapshot's evaluation
    failed; carries a diagnostic snapshot whose seed_index is the position
    of the offending seed in its group."""

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
    targets) exist for ablations. batch_target must equal batch_source:
    every step stacks its source and target batches on one domain axis.
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
    use_clustering: bool = True
    use_alignment: bool = True

    def __post_init__(self):
        if self.pretrain_iters < 0 or self.total_iters <= self.pretrain_iters:
            raise ValueError("pretrain_iters must lie in [0, total_iters)")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        for name in ("decay", "momentum"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        for name in ("margin", "lr_base"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite; "
                                 f"got {getattr(self, name)!r}")
        for name in ("batch_source", "batch_target", "critic_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.batch_target != self.batch_source:
            raise ValueError("batch_target must equal batch_source")
        if any(size < 1 for size in self.hidden_layers):
            raise ValueError("hidden_layers must hold sizes of at least 1")
        for name, known in (("alpha_schedule", ALPHA_SCHEDULES),
                            ("lambda_schedule", LAMBDA_SCHEDULES),
                            ("teacher_mode", TEACHER_MODES)):
            if getattr(self, name) not in known:
                raise ValueError(f"{name} must be one of {', '.join(known)}; "
                                 f"got {getattr(self, name)!r}")
        for name in ("alpha_max", "lambda_max", "ramp_length"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite; "
                                 f"got {getattr(self, name)!r}")
        if self.feature_tap not in ("",) + FEATURE_TAPS:
            raise ValueError(f"feature_tap must be one of {', '.join(FEATURE_TAPS)} or \"\" "
                             f"(automatic: logits for 2 classes, penultimate otherwise); "
                             f"got {self.feature_tap!r}")
        object.__setattr__(self, "hidden_layers", tuple(self.hidden_layers))


@dataclass
class TrainState:
    """One point of a group of seeds run together.

    student_momentum and critic_momentum are the networks' momentum
    buffers, shaped like their params (zeros before the first step).
    teacher is the temporal ensemble, None for the other teacher modes.
    seeds holds the TrainConfig.seed that keys each seed's dropout masks.
    A group's state (stack_states) stacks every array along a leading seed
    axis in that order, one entry for a lone seed; a state of one seed
    from init_train_state has no such axis.
    """

    student: Network
    critic: Network
    student_momentum: np.ndarray
    critic_momentum: np.ndarray
    teacher: TeacherState | None
    seeds: tuple
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
    teacher = None
    if cfg.teacher_mode == "temporal":
        teacher = init_teacher(ds.target_x.shape[0], ds.num_classes, cfg.decay)
    return TrainState(
        student=student,
        critic=critic,
        student_momentum=np.zeros_like(student.params),
        critic_momentum=np.zeros_like(critic.params),
        teacher=teacher,
        seeds=(cfg.seed,),
    )


def stack_states(states) -> TrainState:
    """The group state of per-seed states at one iteration, in order."""
    first = states[0]

    def stacked(get):
        return np.stack([get(s) for s in states])

    teacher = None
    if first.teacher is not None:
        teacher = TeacherState(stacked(lambda s: s.teacher.ensemble),
                               stacked(lambda s: s.teacher.step_counts), first.teacher.decay)
    return TrainState(
        student=Network(first.student.spec, stacked(lambda s: s.student.params)),
        critic=Network(first.critic.spec, stacked(lambda s: s.critic.params)),
        student_momentum=stacked(lambda s: s.student_momentum),
        critic_momentum=stacked(lambda s: s.critic_momentum),
        teacher=teacher,
        seeds=tuple(seed for s in states for seed in s.seeds),
        iteration=first.iteration,
    )


def _seed_state(state: TrainState, index: int) -> TrainState:
    """The state of the index-th seed of a group, as views into it."""
    teacher = state.teacher
    if teacher is not None:
        teacher = TeacherState(teacher.ensemble[index], teacher.step_counts[index],
                               teacher.decay)
    return TrainState(
        student=Network(state.student.spec, state.student.params[index]),
        critic=Network(state.critic.spec, state.critic.params[index]),
        student_momentum=state.student_momentum[index],
        critic_momentum=state.critic_momentum[index],
        teacher=teacher,
        seeds=(state.seeds[index],),
        iteration=state.iteration,
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


class _DropoutPlan:
    """The dropout streams of a group's student passes: the stream of
    (iteration, slot, seed) is that of seeded_rng(derive_seed(seed,
    iteration, slot)). The PCG64 states of a block of _PLAN_BLOCK
    iterations, every slot and every seed, are hashed in one vectorised
    pass; one Streams pair then draws each stream from its state. Only a
    block's states are held, never its draws."""

    def __init__(self, seeds, slot_count: int):
        # Config seeds may take 64 bits or more; every key column gets their dtype.
        self._seeds = np.array(seeds, dtype=np.uint64 if max(seeds) < 2**64 else object)
        self._slots = slot_count
        self._start = self._stop = 0
        self._streams = Streams()

    def uniforms(self, iteration, slots, count):
        """The first count uniforms of the streams of iteration and the given
        consecutive slots (from 1 to the plan's slot count), slot-major: one
        row per (slot, seed)."""
        if not self._start <= iteration < self._stop:
            dtype = self._seeds.dtype
            keys = np.broadcast_arrays(
                self._seeds,
                np.arange(iteration, iteration + _PLAN_BLOCK).astype(dtype)[:, None, None],
                np.arange(1, self._slots + 1).astype(dtype)[:, None])
            states = derived_rng_states(np.stack(keys, axis=-1).reshape(-1, 3))
            self._states = states.reshape(_PLAN_BLOCK, self._slots, len(self._seeds), 4)
            self._start, self._stop = iteration, iteration + _PLAN_BLOCK
        states = self._states[iteration - self._start, slots[0] - 1:slots[-1]].reshape(-1, 4)
        return self._streams.fill(states, np.empty((len(states), count)))


def _dropout_plan(state: TrainState, cfg):
    """A plan for the state's seeds, None when the student draws no mask.
    Slots: 1 keys the source pass, 2 the target pass, 3 the Pi teacher's."""
    if state.student.spec.dropout_rate > 0.0:
        return _DropoutPlan(state.seeds, 3 if cfg.teacher_mode == "pi" else 2)
    return None


def _noise(plan, state: TrainState, rows, *slots):
    """The dropout noise of one student train-mode pass over batches of rows
    rows in the given slots (forward ignores it without dropout)."""
    if plan is None:
        return 0
    return plan.uniforms(state.iteration, slots,
                         rows * sum(state.student.spec.layer_sizes[1:-1]))


def train_step(state: TrainState, batch: BatchPair, cfg: TrainConfig, plan=None):
    """One optimization step; returns the advanced state and its losses.

    A group's batch carries the state's seed axis, and one step advances
    every seed; cfg is the configuration all of them share, and each
    seed's dropout is keyed by its own entry of state.seeds: slot 1 on
    the source pass, 2 on the target pass, 3 on the Pi teacher's. The two
    domains are stacked on a leading domain axis, so the student and the
    critic each make one forward and one backward pass (the student one
    more, the cross-entropy backward on the source logits); a batch whose
    domains differ in shape raises ShapeError. Order: student pass, critic
    pass, teacher, objective, critic backward, feature backward, SGD. plan
    is the run's _dropout_plan (run_training passes one); without one, the
    step hashes its own. The parameters are checked on entry and the
    losses after the update; the parameters a step makes are checked when
    the next step or a snapshot reads them (every run ends on a snapshot).
    """
    _check_parameters(state)
    it = state.iteration
    alpha, lam = schedule_weights(cfg, it)
    lr = lr_schedule(it / cfg.total_iters, cfg.lr_base)
    if plan is None:
        plan = _dropout_plan(state, cfg)

    x = (batch.source_x, batch.target_x)
    if x[0].shape != x[1].shape:
        raise ShapeError(f"source_x has shape {x[0].shape}, target_x {x[1].shape}: "
                         "a step takes domains of one shape")
    # Both domains in one pass, on a leading domain axis (np.asarray stacks
    # the pair).
    trace = forward(state.student, np.asarray(x), "train",
                    _noise(plan, state, x[0].shape[-2], 1, 2))
    critic_trace = forward(state.critic, trace.features)

    # The teacher's view of the target batch is read before any update.
    new_teacher = state.teacher
    if cfg.teacher_mode == "self":
        teacher_probs = trace.probabilities[1]
    elif cfg.teacher_mode == "pi":
        teacher_probs = pi_predict(state.student, batch.target_x,
                                   _noise(plan, state, x[1].shape[-2], 3))
    else:
        teacher_probs, new_teacher = temporal_step(state.teacher, batch.target_indices,
                                                   trace.probabilities[1])
    tgt_labels, tgt_conf = pseudo_labels(teacher_probs)

    bundle, grads = objective(trace.features, trace.probabilities[0], batch.source_y, tgt_labels,
                              tgt_conf, critic_trace.probabilities, cfg)

    # The critic descends the negated discrepancy (so it maximizes l_d);
    # the reversal connector then hands the student +lam * d(l_d)/d(features).
    # Each backward gives one vector per (domain, seed) slice; they are
    # added per seed in the order logits, source, target.
    student_vector = backward(state.student, trace[0], grads.d_logits, "logits",
                              input_gradient=False).vector
    critic_part = backward(state.critic, critic_trace, -grads.d_critic_out[..., None],
                           "probabilities")
    d_feat = reverse_gradient(critic_part.d_input, lam)
    if cfg.use_clustering:
        d_feat += alpha * grads.d_clustering
    if cfg.use_alignment:
        d_feat += alpha * grads.d_alignment
    # A slice whose feature gradient is all zero adds nothing.
    moving = np.any(d_feat, axis=(-2, -1))
    if moving.any():
        vector = backward(state.student, trace, d_feat, "features", input_gradient=False).vector
        for m, v in zip(moving, vector):
            student_vector = np.where(m[..., None], student_vector + v, student_vector)
    student_grads = GradientSet(state.student.spec, student_vector, None)
    critic_grads = GradientSet(state.critic.spec, critic_part.vector[0] + critic_part.vector[1],
                               None)

    new_student, student_momentum = sgd_step(state.student, state.student_momentum,
                                             student_grads, lr, cfg.momentum)
    new_critic, critic_momentum = sgd_step(state.critic, state.critic_momentum,
                                           critic_grads, lr, cfg.momentum)
    _check_losses(bundle, it)

    new_state = TrainState(
        student=new_student,
        critic=new_critic,
        student_momentum=student_momentum,
        critic_momentum=critic_momentum,
        teacher=new_teacher,
        seeds=state.seeds,
        iteration=it + 1,
    )
    return new_state, bundle


def _first(flags) -> int:
    """The position of the first true flag of a flag or a row of flags."""
    return int(np.argmax(np.ravel(flags)))


def _check_parameters(state: TrainState):
    for net, name in ((state.student, "student"), (state.critic, "critic")):
        if not np.isfinite(net.params).all():
            raise TrainingAbort(
                f"non-finite {name} parameters at iteration {state.iteration}",
                {"iteration": state.iteration, "parameter_set": name,
                 "seed_index": _first(~np.isfinite(net.params).all(axis=-1))},
            )


def _check_losses(bundle, iteration):
    finite = np.isfinite((bundle.l_y, bundle.l_c, bundle.l_a, bundle.l_d)).all(axis=0)
    if not finite.all():
        index = _first(~finite)
        details = {name: np.ravel(getattr(bundle, name))[index].item()
                   for name in ("l_y", "l_c", "l_a", "l_d", "selection_count")}
        raise TrainingAbort(f"non-finite loss at iteration {iteration}",
                            dict(details, iteration=iteration, seed_index=index))


def run_training(cfgs, datasets, eval_every: int):
    """Train a group of seeds to completion; returns (final state, metrics
    logs, final views).

    cfgs and datasets are equal-length sequences: configs that differ in
    their seed only and one same-sized dataset per config. The seeds train
    as one group, and the state is the group's, with a seed axis even for
    one seed. logs and views hold one entry per seed: its metrics log,
    with one entry for iteration 0, one after every eval_every-th step and
    one for the final state, and the final state's evaluate.StateView. A
    non-finite value, or an evaluation that fails, stops the whole group
    at its iteration with a TrainingAbort naming the seed.
    """
    if eval_every < 1:
        raise ValueError("eval_every must be at least 1")
    shared = cfgs[0]
    if len(cfgs) != len(datasets) or any(
            dataclasses.replace(c, seed=shared.seed) != shared for c in cfgs):
        raise ValueError("a group needs one dataset per config, and configs that "
                         "differ in their seed only")
    if len({(d.source_x.shape, d.target_x.shape, d.num_classes) for d in datasets}) > 1:
        raise ValueError("the datasets of a group must have the same shapes")
    batches = _batches(cfgs, datasets)
    state = stack_states([init_train_state(c, d) for c, d in zip(cfgs, datasets)])
    plan = _dropout_plan(state, shared)
    logs = [[] for _ in cfgs]
    while True:
        it = state.iteration
        if it % eval_every == 0 or it == shared.total_iters:
            _check_parameters(state)
            views = []
            for index, (c, d, log) in enumerate(zip(cfgs, datasets, logs)):
                try:
                    row, view = snapshot(_seed_state(state, index), c, d)
                except DomainError as exc:
                    raise _domain_abort(exc, it, index) from exc
                except (ArithmeticError, ValueError) as exc:
                    # Such as k-means on features too large for its sums.
                    raise TrainingAbort(f"evaluation failed at iteration {it}: {exc}",
                                        {"iteration": it, "seed_index": index}) from exc
                log.append(row)
                views.append(view)
        if it == shared.total_iters:
            return state, logs, views
        try:
            state, _ = train_step(state, next(batches), shared, plan)
        except DomainError as exc:
            raise _domain_abort(exc, it, exc.seed_index) from exc


def _batches(cfgs, datasets):
    """A group's endless stream of batch pairs, epoch after epoch: each
    seed's batches hold the rows at its epoch's batch_indices, gathered
    for a whole epoch at a time and stacked along the seed axis. The
    seeds' datasets have one shape, so their epochs hold the same number
    of batches."""
    first = datasets[0]
    sizes = (first.source_x.shape[0], first.target_x.shape[0], cfgs[0].batch_source,
             cfgs[0].batch_target)
    batch_seeds = [derive_seed(c.seed, 17) for c in cfgs]
    for epoch in itertools.count():
        indices = [batch_indices(*sizes, seed, epoch) for seed in batch_seeds]
        # One array per field, of shape (batches, seeds, ...); np.take gathers
        # rows far faster than fancy indexing by a 2-D index array.
        fields = [np.stack([np.take(getattr(d, name), idx[domain], axis=0)
                            for d, idx in zip(datasets, indices)], axis=1)
                  for name, domain in (("source_x", 0), ("source_y", 0), ("target_x", 1))]
        fields.append(np.stack([idx[1] for idx in indices], axis=1))
        for i in range(len(fields[0])):
            yield BatchPair(*(field[i] for field in fields))


def _domain_abort(exc, iteration, index):
    # Finite parameters can still overflow into non-finite features.
    return TrainingAbort(f"non-finite values at iteration {iteration}: {exc}",
                         {"iteration": iteration, "seed_index": index})


def train(cfg: TrainConfig, ds: DomainDataset, eval_every: int):
    """Run the full schedule of one seed and return its metrics log."""
    return run_training([cfg], [ds], eval_every)[1][0]
