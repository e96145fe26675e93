"""The tracer sees every call the trainer makes.

Run: python3 -m pytest perfbench/test_tracer.py

A tiny two-seed run goes through `clusteralign.cli.main` with the tracer
installed. Every train_step and every snapshot must contain exactly the
calls its code makes, so a call through a binding the tracer did not
patch shows up as a missing count instead of a silently smaller layer.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from clusteralign import cli  # noqa: E402
from tracer import Spans, Tracer  # noqa: E402

CONFIG = {
    "scenario": "imbalanced_gaussians",
    "seeds": [0, 1],
    "eval_every": 20,
    "dataset": {"n_major": 60, "n_minor": 12},
    "train": {"total_iters": 60, "pretrain_iters": 10,
              "batch_source": 16, "batch_target": 16,
              "hidden_layers": [8], "critic_hidden": 8},
}

# Temporal teacher, student dropout on, critic dropout off.
PER_STEP = {
    "network.forward": 4,
    "losses.clustering_loss": 2,
    "kernels.pairwise_margin_loss": 2,
    "losses.alignment_loss": 1,
    "losses.domain_adversarial_loss": 1,
    "losses.cross_entropy": 1,
    "network.sgd_step": 2,
    "seeding.derive_seed": 5,
    "seeding.seeded_rng": 2,
    "teacher.corrected_probabilities": 1,
    "teacher.temporal_update": 1,
    "teacher.pseudo_labels": 1,
}

PER_SNAPSHOT = {
    "network.forward": 4,
    "teacher.corrected_probabilities": 1,
    "teacher.pseudo_labels": 1,
    "losses.cross_entropy": 1,
    "losses.clustering_loss": 2,
    "kernels.pairwise_margin_loss": 2,
    "losses.alignment_loss": 1,
    "losses.domain_adversarial_loss": 2,
    "evaluate.kmeans_best": 1,
    # Two keyed evaluation seeds plus one per k-means restart.
    "seeding.derive_seed": 7,
    "seeding.seeded_rng": 5,
}


def traced_run(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        code = cli.main(["run", str(config), "--output-dir", str(tmp_path / "out")])
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert code == 0
    return Spans.from_tracer(tracer), wall


def _subset(counter, expected):
    return {name: counter[name] for name in expected}


def test_every_step_and_snapshot_call_is_traced(tmp_path):
    spans, _ = traced_run(tmp_path)
    steps = spans.counts_within("trainer.train_step")
    assert len(steps) == 2 * CONFIG["train"]["total_iters"]
    for counts in steps.values():
        assert _subset(counts, PER_STEP) == PER_STEP
    snapshots = spans.counts_within("evaluate.snapshot")
    assert len(snapshots) == 2 * (CONFIG["train"]["total_iters"] // CONFIG["eval_every"] + 1)
    for counts in snapshots.values():
        assert _subset(counts, PER_SNAPSHOT) == PER_SNAPSHOT


def test_self_times_sum_to_wall_time(tmp_path):
    spans, wall = traced_run(tmp_path)
    assert spans.self_time.min() > -1e-6
    assert abs(spans.self_time.sum() - wall) <= 0.02 * wall


def test_spans_carry_the_experiment_seed(tmp_path):
    spans, _ = traced_run(tmp_path)
    steps = spans.mask("trainer.train_step")
    assert sorted(set(spans.seed[steps].tolist())) == CONFIG["seeds"]


def test_uninstall_restores_every_binding(tmp_path):
    from clusteralign import evaluate, network, trainer

    originals = (network.forward, trainer.forward, evaluate.forward, cli.run_training)
    tracer = Tracer()
    tracer.install()
    assert trainer.forward is not originals[1]
    tracer.uninstall()
    assert (network.forward, trainer.forward, evaluate.forward, cli.run_training) == originals
