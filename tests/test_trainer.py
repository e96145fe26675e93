import collections
import copy
import dataclasses
import functools
import itertools
import math
import re

import numpy as np
import pytest

from clusteralign import losses as loss_module, trainer as trainer_module
from clusteralign.data import BatchPair, make_imbalanced_gaussians, make_multimode_domains
from clusteralign.evaluate import snapshot
from clusteralign.losses import cross_entropy, objective
from clusteralign.network import Network, ShapeError, forward
from clusteralign.seeding import derive_seed
from clusteralign.teacher import corrected_probabilities, pseudo_labels
from clusteralign.trainer import (
    TrainConfig,
    TrainingAbort,
    alpha_exp_ramp,
    alpha_logistic,
    init_train_state,
    lr_schedule,
    run_training,
    schedule_weights,
    stack_states,
    train,
    train_step,
)

from helpers import iterate_batches, total_objective


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

    @pytest.mark.parametrize("over, iteration, expected", [
        # exp_ramp over the whole adaptation span (ramp_length 0 = 50 steps)
        ({"alpha_schedule": "exp_ramp", "lambda_schedule": "constant"}, 50,
         (math.exp(-10.0), 0.7)),
        ({"alpha_schedule": "exp_ramp", "lambda_schedule": "constant"}, 75,
         (math.exp(-5.0), 0.7)),
        ({"alpha_schedule": "exp_ramp"}, 75, (math.exp(-5.0), 0.7 * math.exp(-5.0))),
        # exp_ramp over an explicit 10-step ramp
        ({"alpha_schedule": "exp_ramp", "ramp_length": 10}, 55,
         (math.exp(-5.0), 0.7 * math.exp(-5.0))),
        ({"alpha_schedule": "exp_ramp", "ramp_length": 10}, 60, (1.0, 0.7)),
        ({"alpha_schedule": "constant", "alpha_max": 0.4}, 50, (0.4, 0.7)),
        ({"alpha_schedule": "constant", "alpha_max": 0.4}, 49, (0.0, 0.0)),
        # a constant lam next to a logistic alpha that starts at zero
        ({"lambda_schedule": "constant"}, 50, (0.0, 0.7)),
    ])
    def test_schedule_weights_hand_values(self, over, iteration, expected):
        cfg = tiny_config(total_iters=100, pretrain_iters=50, lambda_max=0.7, **over)
        assert schedule_weights(cfg, iteration) == pytest.approx(expected, rel=1e-12)


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
        expected, _ = sgd_step(state.student, state.student_momentum, grads, lr, cfg.momentum)

        assert np.array_equal(new_state.student.params, expected.params)
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
        assert np.array_equal(a.student.params, b.student.params)
        assert np.array_equal(a.critic.params, b.critic.params)

    def test_step_leaves_its_input_state_unchanged(self):
        # An in-place update would slip past test_step_deterministic_bitwise:
        # both calls would return the same mutated object.
        ds = tiny_dataset()
        cfg = tiny_config(pretrain_iters=0)
        batch = first_batch(ds, cfg)
        state, _ = train_step(init_train_state(cfg, ds), batch, cfg)  # nonzero buffers
        before = copy.deepcopy(state)
        train_step(state, batch, cfg)
        arrays = lambda s: (s.student.params, s.critic.params, s.student_momentum,
                            s.critic_momentum, s.teacher.ensemble, s.teacher.step_counts)
        assert all(np.array_equal(a, b) for a, b in zip(arrays(state), arrays(before)))

    @pytest.mark.parametrize("name, index", [("student", 0), ("critic", -1)],
                             ids=["student-first-weight", "critic-last-bias"])
    def test_abort_on_nonfinite(self, name, index):
        ds = tiny_dataset()
        cfg = tiny_config()
        state = init_train_state(cfg, ds)
        net = getattr(state, name)
        params = net.params.copy()
        params[index] = np.nan
        setattr(state, name, Network(net.spec, params))
        with pytest.raises(TrainingAbort, match=f"non-finite {name} parameters") as err:
            train_step(state, first_batch(ds, cfg), cfg)
        assert err.value.details == {"iteration": 0, "parameter_set": name, "seed_index": 0}

    def test_a_step_refuses_domains_of_different_shapes(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        batch = first_batch(ds, cfg)
        short = BatchPair(batch.source_x, batch.source_y, batch.target_x[:8],
                          batch.target_indices[:8])
        with pytest.raises(ShapeError, match=re.escape("source_x has shape (16, 2), "
                                                       "target_x (8, 2)")):
            train_step(init_train_state(cfg, ds), short, cfg)

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
            finals.append(state.student.params)
        assert np.array_equal(*finals)

        # Swapping the critic for a differently-initialized one must not
        # change the student during pretraining either.
        cfg = tiny_config()
        state = init_train_state(cfg, ds)
        other = init_train_state(tiny_config(seed=99), ds)
        state.critic = other.critic
        for _ in range(cfg.pretrain_iters):
            state, _ = train_step(state, first_batch(ds, cfg, epoch=0), cfg)
        assert np.array_equal(state.student.params, finals[0])


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
        state_a, (metrics_a,), _ = run_training([cfg], [ds], eval_every=10)
        state_b, (metrics_b,), _ = run_training([cfg], [shuffled], eval_every=10)
        assert np.array_equal(state_a.student.params, state_b.student.params)
        assert metrics_a[-1].l_y == metrics_b[-1].l_y
        assert metrics_a[-1].selection_rate == metrics_b[-1].selection_rate

    def test_pi_teacher_without_dropout_is_the_self_teacher(self):
        # Without dropout a Pi teacher's train-mode pass is the student's
        # own prediction, so both teachers give the same run.
        ds = tiny_dataset()
        runs = [run_training([tiny_config(teacher_mode=mode, dropout_rate=0.0)], [ds], eval_every=4)
                for mode in ("pi", "self")]
        (state_pi, (metrics_pi,), _), (state_self, (metrics_self,), _) = runs
        assert np.array_equal(state_pi.student.params, state_self.student.params)
        assert [m.__dict__ for m in metrics_pi] == [m.__dict__ for m in metrics_self]

    @pytest.mark.parametrize("mode", ["temporal", "pi", "self"])
    def test_only_the_temporal_teacher_keeps_an_ensemble(self, mode):
        state = init_train_state(tiny_config(teacher_mode=mode), tiny_dataset())
        assert (state.teacher is None) == (mode != "temporal")
        # The config checks decay whether or not an ensemble uses it.
        with pytest.raises(ValueError, match="^decay must lie"):
            tiny_config(teacher_mode=mode, decay=1.0)

    @pytest.mark.parametrize("momentum", [1.0, -0.1])
    def test_config_rejects_a_momentum_outside_the_unit_interval(self, momentum):
        with pytest.raises(ValueError, match="^momentum must lie"):
            tiny_config(momentum=momentum)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tiny_config(pretrain_iters=12, total_iters=12)
        with pytest.raises(ValueError):
            tiny_config(threshold=1.5)
        with pytest.raises(ValueError):
            tiny_config(margin=0.0)
        with pytest.raises(ValueError):
            tiny_config(alpha_schedule="linear")

    def test_config_refuses_batches_of_different_sizes(self):
        with pytest.raises(ValueError, match="^batch_target must equal batch_source$"):
            TrainConfig(batch_source=16, batch_target=8)

    def test_run_rejects_a_zero_eval_interval(self):
        with pytest.raises(ValueError, match="^eval_every must be at least 1$"):
            run_training([tiny_config()], [tiny_dataset()], eval_every=0)

    def test_run_rejects_datasets_of_different_shapes(self):
        cfgs = [tiny_config(seed=3), tiny_config(seed=4)]
        datasets = [tiny_dataset(), make_imbalanced_gaussians(n_major=50, n_minor=12, seed=1)]
        with pytest.raises(ValueError, match="^the datasets of a group must have the same shapes$"):
            run_training(cfgs, datasets, eval_every=4)


def run_alone(cfg, ds, eval_every):
    """One seed run step by step on its own 2-D state: the final state,
    the metrics log and the final view that its slice of a group must
    hold."""
    state = init_train_state(cfg, ds)
    stream = itertools.chain.from_iterable(
        iterate_batches(ds, cfg.batch_source, cfg.batch_target, derive_seed(cfg.seed, 17), epoch)
        for epoch in itertools.count())
    log = []
    while True:
        if state.iteration % eval_every == 0 or state.iteration == cfg.total_iters:
            row, view = snapshot(state, cfg, ds)
            log.append(row)
        if state.iteration == cfg.total_iters:
            return state, log, view
        state, _ = train_step(state, next(stream), cfg)


def state_arrays(state):
    arrays = [state.student.params, state.critic.params, state.student_momentum,
              state.critic_momentum]
    if state.teacher is not None:
        arrays += [state.teacher.ensemble, state.teacher.step_counts]
    return arrays


class TestSeedGroup:
    SEEDS = (3, 4, 5)

    def group(self, dataset=tiny_dataset, **over):
        return ([tiny_config(seed=seed, **over) for seed in self.SEEDS],
                [dataset(seed=seed) for seed in range(len(self.SEEDS))])

    @pytest.mark.parametrize("dataset, over", [
        (tiny_dataset, {"teacher_mode": "temporal", "dropout_rate": 0.3}),
        (tiny_dataset, {"teacher_mode": "pi", "dropout_rate": 0.3}),
        (tiny_dataset, {"teacher_mode": "self", "hidden_layers": (), "feature_tap": "penultimate"}),
        # 40 source and 60 target rows: an epoch holds 3 target batches, and
        # the source's 2 cycle; the snapshot's domains differ in size.
        (functools.partial(make_multimode_domains, n_per_mode=10),
         {"teacher_mode": "temporal", "dropout_rate": 0.3}),
    ], ids=["temporal-dropout", "pi-dropout", "self-no-hidden-layer", "domains-of-two-sizes"])
    def test_group_holds_the_bytes_of_each_seed_run_alone(self, dataset, over):
        cfgs, datasets = self.group(dataset, total_iters=20, pretrain_iters=5, **over)
        state, logs, views = run_training(cfgs, datasets, eval_every=6)
        for index, (cfg, ds) in enumerate(zip(cfgs, datasets)):
            alone, log, view = run_alone(cfg, ds, eval_every=6)
            for grouped, single in zip(state_arrays(state), state_arrays(alone)):
                # Signs of zeros included.
                assert grouped[index].tobytes() == single.tobytes()
            assert [m.__dict__ for m in logs[index]] == [m.__dict__ for m in log]
            assert all(np.array_equal(getattr(views[index], f), getattr(view, f))
                       for f in vars(view))

    def test_a_lone_seed_trains_as_a_group_of_one(self):
        cfg = tiny_config()
        state, logs, views = run_training([cfg], [tiny_dataset()], eval_every=4)
        assert state.seeds == (cfg.seed,)
        assert all(a.shape[0] == 1 for a in state_arrays(state))
        assert state.student.params.shape == (1, state.student.spec.num_params)
        assert len(logs) == len(views) == 1
        assert [m.iteration for m in logs[0]] == [0, 4, 8, 12]

    def test_group_configs_may_differ_in_their_seed_only(self):
        cfgs, datasets = self.group()
        cfgs[1] = tiny_config(seed=self.SEEDS[1], margin=9.0)
        with pytest.raises(ValueError, match="seed only"):
            run_training(cfgs, datasets, eval_every=4)

    @pytest.mark.parametrize("index", [0, 2])
    def test_abort_names_the_seed_of_the_group(self, index):
        cfgs, datasets = self.group()
        states = [init_train_state(cfg, ds) for cfg, ds in zip(cfgs, datasets)]
        params = states[index].critic.params.copy()
        params[-1] = np.inf
        states[index].critic = Network(states[index].critic.spec, params)
        pairs = [first_batch(ds, cfg) for cfg, ds in zip(cfgs, datasets)]
        batch = BatchPair(*(np.stack(parts) for parts in zip(*(vars(p).values() for p in pairs))))
        with pytest.raises(TrainingAbort, match="non-finite critic parameters") as err:
            train_step(stack_states(states), batch, cfgs[0])
        assert err.value.details == {"iteration": 0, "parameter_set": "critic",
                                     "seed_index": index}


def group_step_inputs(seeds, **over):
    """The stacked state, batch and configs of a group's first step."""
    cfgs = [tiny_config(seed=seed, **over) for seed in seeds]
    datasets = [tiny_dataset(i) for i in range(len(seeds))]
    state = stack_states([init_train_state(c, d) for c, d in zip(cfgs, datasets)])
    pairs = [first_batch(d, c) for c, d in zip(cfgs, datasets)]
    batch = BatchPair(*(np.stack(parts) for parts in zip(*(vars(p).values() for p in pairs))))
    return state, batch, cfgs


class TestDomainAxis:
    @pytest.mark.parametrize("seeds", [(3,), (3, 4)], ids=["one-seed", "two-seeds"])
    def test_the_target_pass_is_keyed_by_its_own_slot(self, seeds):
        # The temporal teacher's first update holds (1 - decay) times the
        # target pass's probabilities; slot 1 keys the source pass.
        state, batch, cfgs = group_step_inputs(seeds, dropout_rate=0.3)
        stepped, _ = train_step(state, batch, cfgs[0])
        for index, cfg in enumerate(cfgs):
            student = Network(state.student.spec, state.student.params[index])
            alone = forward(student, batch.target_x[index], "train", derive_seed(cfg.seed, 0, 2))
            rows = stepped.teacher.ensemble[index][batch.target_indices[index]]
            assert np.array_equal(rows, (1.0 - cfg.decay) * alone.probabilities)

    @pytest.mark.parametrize("seeds", [(3,), (3, 4, 5)], ids=["one-seed", "three-seeds"])
    def test_a_step_makes_one_pass_per_network(self, monkeypatch, seeds):
        calls = collections.Counter()

        def count(module, name, key):
            fn = getattr(module, name)

            @functools.wraps(fn)
            def counting(*args, **kwargs):
                calls[key(*args)] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        def role(net):
            return "student" if net.spec.head == "softmax" else "critic"

        for name in ("forward", "backward"):
            count(trainer_module, name, lambda net, *_, name=name: (name, role(net)))
        for name in ("stacked_margin_loss", "pairwise_margin_loss"):
            count(loss_module, name, lambda *_, name=name: (name,))
        state, batch, cfgs = group_step_inputs(seeds, dropout_rate=0.3)
        # Past pretraining, so the feature backward runs.
        train_step(dataclasses.replace(state, iteration=6), batch, cfgs[0])
        assert calls == {("forward", "student"): 1, ("forward", "critic"): 1,
                         ("backward", "critic"): 1, ("backward", "student"): 2,
                         ("stacked_margin_loss",): 1}


def test_the_snapshot_and_the_step_combine_the_same_terms():
    # The snapshot calls the losses itself, one domain at a time; on domains
    # of one size, its l_y, l_a and l_d are those of objective on the same
    # passes, stacked. l_c is left out: the snapshot's loss-only kernel and
    # the step's Gram-form kernel round differently.
    ds = tiny_dataset()
    cfg = tiny_config(threshold=0.5)
    state = init_train_state(cfg, ds)
    for pair in iterate_batches(ds, 16, 16, derive_seed(cfg.seed, 17), 0)[:3]:
        state, _ = train_step(state, pair, cfg)
    row, _ = snapshot(state, cfg, ds)

    src, tgt = (forward(state.student, x, traced=False) for x in (ds.source_x, ds.target_x))
    labels, conf = pseudo_labels(corrected_probabilities(state.teacher))
    features = np.stack((src.features, tgt.features))
    critic_outputs = np.stack([forward(state.critic, f, traced=False).probabilities
                               for f in features])
    bundle, _ = objective(features, src.probabilities, ds.source_y, labels, conf,
                          critic_outputs, cfg)
    assert bundle.selection_count > 0
    for name in ("l_y", "l_a", "l_d"):
        assert np.float64(getattr(row, name)).tobytes() == np.float64(
            getattr(bundle, name)).tobytes(), name


def objective_at(student, critic, teacher, batch, cfg, iteration):
    """Mirror of the step's monitored objective with all noise held fixed."""
    alpha, lam = schedule_weights(cfg, iteration)
    trace_src = forward(student, batch.source_x, "train", derive_seed(cfg.seed, iteration, 1))
    trace_tgt = forward(student, batch.target_x, "train", derive_seed(cfg.seed, iteration, 2))
    labels, conf = pseudo_labels(corrected_probabilities(teacher)[batch.target_indices])
    features = np.stack((trace_src.features, trace_tgt.features))
    critic_outputs = forward(critic, features).probabilities
    losses, _ = objective(features, trace_src.probabilities, batch.source_y, labels, conf,
                          critic_outputs, cfg)
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


@pytest.mark.parametrize("field, value", [
    (field, value)
    for field in ("alpha_max", "lambda_max", "margin", "lr_base")
    for value in (math.nan, math.inf)
] + [("alpha_max", -math.inf), ("lambda_max", -math.inf)])
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        tiny_config(**{field: value})
