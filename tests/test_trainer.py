import math

import numpy as np
import pytest

from clusteralign.data import iterate_batches, make_imbalanced_gaussians
from clusteralign.losses import cross_entropy, objective
from clusteralign.network import Network, forward
from clusteralign.seeding import derive_seed
from clusteralign.teacher import corrected_probabilities, pseudo_labels
from clusteralign.trainer import (
    TrainConfig,
    TrainingAbort,
    alpha_exp_ramp,
    alpha_logistic,
    init_train_state,
    lr_schedule,
    schedule_weights,
    train,
    train_step,
)

from helpers import total_objective


def tiny_dataset(seed=0):
    return make_imbalanced_gaussians(n_major=60, n_minor=12, seed=seed)


def tiny_config(**over):
    base = dict(
        total_iters=12, pretrain_iters=4, batch_source=16, batch_target=16,
        hidden_layers=(8,), critic_hidden=8, seed=3,
    )
    base.update(over)
    return TrainConfig(**base)


def first_batch(ds, cfg, epoch=0):
    return iterate_batches(ds, cfg.batch_source, cfg.batch_target,
                           derive_seed(cfg.seed, 17), epoch)[0]


class TestSchedules:
    def test_logistic_endpoints(self):
        assert alpha_logistic(0.0) == 0.0
        assert alpha_logistic(1.0) == pytest.approx(2.0 / (1.0 + math.exp(-10.0)) - 1.0)
        assert alpha_logistic(1.0) == pytest.approx(0.999909, abs=1e-6)

    def test_logistic_monotone(self):
        grid = np.linspace(0.0, 1.0, 100)
        values = [alpha_logistic(t) for t in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_exp_ramp_values(self):
        assert alpha_exp_ramp(499, start=500, length=1000) == 0.0
        assert alpha_exp_ramp(500, start=500, length=1000) == pytest.approx(
            math.exp(-10.0), rel=1e-12
        )
        assert alpha_exp_ramp(1500, start=500, length=1000) == 1.0
        assert alpha_exp_ramp(9999, start=500, length=1000) == 1.0

    def test_lr_schedule_values(self):
        assert lr_schedule(0.0, 0.01) == 0.01
        assert lr_schedule(1.0, 0.01) == pytest.approx(0.01 / 11.0 ** 0.75, rel=1e-12)
        # Frozen from direct evaluation of the annealing formula at p=1.
        assert lr_schedule(1.0, 0.01) == pytest.approx(1.6556e-3, abs=1e-7)

    def test_lr_strictly_decreasing(self):
        grid = np.linspace(0.0, 1.0, 50)
        values = [lr_schedule(t, 0.01) for t in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_weights_zero_during_pretraining(self):
        cfg = tiny_config(total_iters=100, pretrain_iters=50)
        for it in (0, 25, 49):
            assert schedule_weights(cfg, it) == (0.0, 0.0)
        alpha, lam = schedule_weights(cfg, 75)
        assert alpha > 0.0 and lam > 0.0


class TestTrainStep:
    def test_pretraining_step_is_pure_supervised(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        state = init_train_state(cfg, ds)
        batch = first_batch(ds, cfg)

        new_state, bundle = train_step(state, batch, cfg)

        # Reference: apply only the cross-entropy gradient by hand.
        from clusteralign.network import backward, sgd_step

        trace = forward(state.student, batch.source_x, "train", derive_seed(cfg.seed, 0, 1))
        _, d_logits = cross_entropy(trace.probabilities, batch.source_y)
        grads = backward(state.student, trace, d_logits, "logits")
        lr = lr_schedule(0.0, cfg.lr_base)
        expected, _ = sgd_step(state.student, state.student_opt, grads, lr)

        for a, b in zip(new_state.student.weights, expected.weights):
            assert np.array_equal(a, b)
        assert bundle.l_c != 0.0  # computed even though not applied

    def test_empty_selection_zeroes_target_critic_gradient(self):
        ds = tiny_dataset()
        cfg = tiny_config(threshold=1.0)  # nothing can exceed 1.0 strictly
        state = init_train_state(cfg, ds)
        _, bundle = train_step(state, first_batch(ds, cfg), cfg)
        assert bundle.selection_count == 0

    def test_step_deterministic_bitwise(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        state = init_train_state(cfg, ds)
        batch = first_batch(ds, cfg)
        a, _ = train_step(state, batch, cfg)
        b, _ = train_step(state, batch, cfg)
        for wa, wb in zip(a.student.weights, b.student.weights):
            assert np.array_equal(wa, wb)
        for wa, wb in zip(a.critic.weights, b.critic.weights):
            assert np.array_equal(wa, wb)

    def test_abort_on_nonfinite(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        state = init_train_state(cfg, ds)
        bad = list(state.student.weights)
        bad[0] = bad[0].copy()
        bad[0][0, 0] = np.nan
        state.student = Network(state.student.spec, tuple(bad), state.student.biases)
        with pytest.raises(TrainingAbort) as err:
            train_step(state, first_batch(ds, cfg), cfg)
        assert "iteration" in err.value.details

    def test_pretraining_invariant_to_margin_threshold_decay_critic(self):
        ds = tiny_dataset()
        variants = [
            tiny_config(),
            tiny_config(margin=9.0, threshold=0.1, decay=0.2),
        ]
        finals = []
        for cfg in variants:
            state = init_train_state(cfg, ds)
            for _ in range(cfg.pretrain_iters):
                state, _ = train_step(state, first_batch(ds, cfg, epoch=0), cfg)
            finals.append(state.student.weights)
        for a, b in zip(*finals):
            assert np.array_equal(a, b)

        # Swapping the critic for a differently-initialized one must not
        # change the student during pretraining either.
        cfg = tiny_config()
        state = init_train_state(cfg, ds)
        other = init_train_state(tiny_config(seed=99), ds)
        state.critic = other.critic
        for _ in range(cfg.pretrain_iters):
            state, _ = train_step(state, first_batch(ds, cfg, epoch=0), cfg)
        for a, b in zip(state.student.weights, finals[0]):
            assert np.array_equal(a, b)


class TestTrainLoop:
    def test_metrics_log_length(self):
        ds = tiny_dataset()
        cfg = tiny_config(total_iters=12, pretrain_iters=2)
        metrics = train(cfg, ds, eval_every=5)
        assert len(metrics) == 12 // 5 + 2
        assert [m.iteration for m in metrics] == [0, 5, 10, 12]

    def test_run_deterministic(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        a = train(cfg, ds, eval_every=4)
        b = train(cfg, ds, eval_every=4)
        assert [m.__dict__ for m in a] == [m.__dict__ for m in b]

    def test_degenerate_schedule_equals_source_only(self):
        ds = tiny_dataset()
        # total == pretrain is rejected, so compare alpha_max=lambda_max=0
        # against the pretraining-only trajectory instead.
        cfg_a = tiny_config(alpha_max=0.0, lambda_max=0.0, total_iters=6, pretrain_iters=5)
        cfg_b = tiny_config(total_iters=6, pretrain_iters=5)
        met_a = train(cfg_a, ds, eval_every=5)
        met_b = train(cfg_b, ds, eval_every=5)
        assert met_a[1].source_accuracy == met_b[1].source_accuracy

    @pytest.mark.parametrize("teacher", [
        {"teacher_mode": "temporal"},
        {"teacher_mode": "pi", "dropout_rate": 0.3},
        {"teacher_mode": "self"},
    ], ids=["temporal", "pi", "self"])
    def test_hidden_target_labels_never_influence_training(self, teacher):
        ds = tiny_dataset()
        shuffled = type(ds)(
            ds.source_x, ds.source_y, ds.target_x,
            np.roll(ds.target_y_hidden, 7), ds.num_classes,
        )
        cfg = tiny_config(total_iters=10, pretrain_iters=2, **teacher)
        from clusteralign.trainer import run_training

        state_a, metrics_a, _ = run_training(cfg, ds, eval_every=10)
        state_b, metrics_b, _ = run_training(cfg, shuffled, eval_every=10)
        for a, b in zip(state_a.student.weights, state_b.student.weights):
            assert np.array_equal(a, b)
        assert metrics_a[-1].l_y == metrics_b[-1].l_y
        assert metrics_a[-1].selection_rate == metrics_b[-1].selection_rate

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tiny_config(pretrain_iters=12, total_iters=12)
        with pytest.raises(ValueError):
            tiny_config(threshold=1.5)
        with pytest.raises(ValueError):
            tiny_config(margin=0.0)
        with pytest.raises(ValueError):
            tiny_config(alpha_schedule="linear")


def objective_at(student, critic, teacher, batch, cfg, iteration):
    """Mirror of the step's monitored objective with all noise held fixed."""
    alpha, lam = schedule_weights(cfg, iteration)
    trace_src = forward(student, batch.source_x, "train", derive_seed(cfg.seed, iteration, 1))
    trace_tgt = forward(student, batch.target_x, "train", derive_seed(cfg.seed, iteration, 2))
    labels, conf = pseudo_labels(corrected_probabilities(teacher)[batch.target_indices])
    losses, _ = objective(trace_src, trace_tgt, batch.source_y, labels, conf, critic, cfg)
    return total_objective(losses.l_y, losses.l_c, losses.l_a, losses.l_d, alpha, lam)


def test_composed_gradient_descends_total_objective():
    # For a frozen critic and fixed teacher labels, one tiny student step
    # along the composed gradient must not increase the monitored total.
    deltas = []
    for seed in range(8):
        ds = make_imbalanced_gaussians(n_major=40, n_minor=10, seed=seed)
        warm = TrainConfig(total_iters=40, pretrain_iters=6, batch_source=16,
                           batch_target=16, hidden_layers=(8,), critic_hidden=8,
                           seed=seed, threshold=0.5)
        state = init_train_state(warm, ds)
        epoch = 0
        while state.iteration < 30:
            for pair in iterate_batches(ds, 16, 16, derive_seed(warm.seed, 17), epoch):
                if state.iteration >= 30:
                    break
                state, _ = train_step(state, pair, warm)
            epoch += 1

        it = state.iteration
        # Effective lr must come out as 1e-4 after annealing; momentum off so
        # the update is exactly -lr * composed_gradient.
        lr_base = 1e-4 * (1.0 + 10.0 * it / warm.total_iters) ** 0.75
        probe = TrainConfig(total_iters=40, pretrain_iters=6, batch_source=16,
                            batch_target=16, hidden_layers=(8,), critic_hidden=8,
                            seed=seed, threshold=0.5, momentum=0.0, lr_base=lr_base)
        batch = iterate_batches(ds, 16, 16, derive_seed(warm.seed, 17), 99)[0]
        before = objective_at(state.student, state.critic, state.teacher, batch, probe, it)
        stepped, _ = train_step(state, batch, probe)
        after = objective_at(stepped.student, state.critic, state.teacher, batch, probe, it)
        deltas.append(after - before)
    assert np.mean(deltas) <= 0.0
    assert np.mean(deltas) < -1e-9  # the step makes real progress on average
