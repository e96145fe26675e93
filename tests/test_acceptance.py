"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The scenario criteria drive the shipped presets end to end (3 seeds each)
through the same resolution path the CLI uses; each variant's group is
trained once, in a process pool, and shared across criteria via fixtures.
"""

import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from clusteralign.cli import build_dataset, build_train_config, main, resolve_config
from clusteralign.data import load_idx, DomainDataset
from clusteralign.losses import (
    alignment_loss,
    clustering_loss,
    cross_entropy,
    domain_adversarial_loss,
)
from clusteralign.network import (
    backward,
    forward,
)
from clusteralign.seeding import seeded_rng
from clusteralign.teacher import (
    corrected_probabilities,
    init_teacher,
    pi_predict,
    temporal_step,
)
from clusteralign.trainer import TrainConfig, run_training, train
from clusteralign.evaluate import selection_rate  # noqa: F401  (re-exported surface)

from helpers import (
    brute_force_alignment,
    brute_force_clustering,
    ewma_oracle,
    finite_diff_check,
    key_noise,
    kink_free_instance,
    margin_safe_labels,
)

pytestmark = pytest.mark.acceptance

SEEDS = (0, 1, 2)


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def run_scenario(scenario, ablation, seeds=SEEDS):
    """The seeds' runs, trained as one group as `run` trains them; each
    run's runtime is the wall time of its whole group, measured where it
    trains."""
    resolved = resolve_config(
        {"scenario": scenario, "seeds": list(seeds), "ablation": ablation}
    )
    datasets = [build_dataset(resolved, seed) for seed in seeds]
    cfgs = [build_train_config(resolved, seed) for seed in seeds]
    start = time.perf_counter()
    _, logs, _ = run_training(cfgs, datasets, resolved["eval_every"])
    runtime = time.perf_counter() - start
    return [{"metrics": metrics, "runtime": runtime, "pretrain": cfg.pretrain_iters}
            for metrics, cfg in zip(logs, cfgs)]


def final_accuracy(runs):
    return float(np.mean([r["metrics"][-1].target_acc for r in runs]))


# Each scenario fixture's group, in the order the criteria first ask for
# them.
GROUPS = {
    "imbalanced_cat": ("imbalanced_gaussians", []),
    "imbalanced_marginal": ("imbalanced_gaussians", ["marginal_only"]),
    "multimode_cat": ("multimode", []),
    "multimode_no_lc": ("multimode", ["no_Lc"]),
    "multimode_no_la": ("multimode", ["no_La"]),
    "multimode_marginal": ("multimode", ["marginal_only"]),
}


@pytest.fixture(scope="session")
def trained_groups():
    """Every group of GROUPS, submitted at once to a pool of spawned
    workers, each of which trains with one BLAS thread (runs do not depend
    on the count). os.putenv sets it in the worker's C environment, which
    OpenBLAS reads when numpy loads with the worker's first task."""
    with ProcessPoolExecutor(min(os.cpu_count() or 1, len(GROUPS)),
                             mp_context=multiprocessing.get_context("spawn"),
                             initializer=os.putenv,
                             initargs=("OPENBLAS_NUM_THREADS", "1")) as pool:
        yield {name: pool.submit(run_scenario, *args) for name, args in GROUPS.items()}


@pytest.fixture(scope="module")
def imbalanced_cat(trained_groups):
    return trained_groups["imbalanced_cat"].result()


@pytest.fixture(scope="module")
def imbalanced_marginal(trained_groups):
    return trained_groups["imbalanced_marginal"].result()


@pytest.fixture(scope="module")
def multimode_cat(trained_groups):
    return trained_groups["multimode_cat"].result()


@pytest.fixture(scope="module")
def multimode_no_lc(trained_groups):
    return trained_groups["multimode_no_lc"].result()


@pytest.fixture(scope="module")
def multimode_no_la(trained_groups):
    return trained_groups["multimode_no_la"].result()


@pytest.fixture(scope="module")
def multimode_marginal(trained_groups):
    return trained_groups["multimode_marginal"].result()


def test_criterion_1_imbalanced_separation(imbalanced_cat, imbalanced_marginal):
    cat = final_accuracy(imbalanced_cat)
    marginal = final_accuracy(imbalanced_marginal)
    slowest = max(r["runtime"] for r in imbalanced_cat + imbalanced_marginal)
    ok = cat >= 0.95 and marginal <= 0.70 and slowest <= 120.0
    report(1, ok, f"CAT {cat:.3f} >= 0.95, marginal {marginal:.3f} <= 0.70, "
                  f"slowest run {slowest:.1f}s <= 120s")


def test_criterion_2_multimode_ablation_ordering(
    multimode_cat, multimode_no_lc, multimode_no_la, multimode_marginal
):
    cat = final_accuracy(multimode_cat)
    no_lc = final_accuracy(multimode_no_lc)
    no_la = final_accuracy(multimode_no_la)
    marginal = final_accuracy(multimode_marginal)
    ok = cat >= no_lc - 0.02 and cat >= no_la - 0.02 and cat >= marginal + 0.05
    report(2, ok, f"CAT {cat:.3f} vs no_Lc {no_lc:.3f}, no_La {no_la:.3f}, "
                  f"marginal {marginal:.3f}")


def test_criterion_3_gradient_correctness():
    worst = {"linear": 0.0, "l_y": 0.0, "l_c": 0.0, "l_a": 0.0, "l_d_critic": 0.0}

    # Linear sanity case: gradient of sum(theta) is exactly ones.
    net, _, _ = kink_free_instance(1000)
    ones = np.ones_like(net.params)
    worst["linear"] = finite_diff_check(
        net,
        lambda c: sum(float(w.sum()) for w in c.weights)
        + sum(float(b.sum()) for b in c.biases),
        ones,
        h=1e-5,
    )

    for i in range(50):
        rng = seeded_rng(2000, i)

        # Supervised loss through train-mode dropout.
        net, x, noise = kink_free_instance((3000, i), sizes=(3, 6, 3), dropout=0.2)
        y = rng.integers(3, size=x.shape[0])
        trace = forward(net, x, noise)
        _, d_logits = cross_entropy(trace.probabilities, y)
        grads, _ = backward(net, trace, d_logits, "logits")
        worst["l_y"] = max(worst["l_y"], finite_diff_check(
            net,
            lambda c: cross_entropy(forward(c, x, noise).probabilities, y)[0],
            grads, h=1e-5, max_coords=32, seed=i,
        ))

        # Clustering loss with an active margin, away from hinge kinks.
        # Pairwise distances are invariant to common feature shifts, so the
        # final-layer bias gradients are exactly zero; h = 1e-3 keeps the
        # difference-quotient roundoff on those coordinates below the 1e-8
        # denominator floor (at h = 1e-5 the noise alone would read ~1e-3).
        net, x, noise = kink_free_instance((4000, i), sizes=(3, 6, 3), guard=5e-2)
        trace = forward(net, x, noise)
        labels = margin_safe_labels(trace.features, rng, 3, margin=3.0, guard=0.15)
        _, d_feats = clustering_loss(trace.features, labels, 3.0)
        grads, _ = backward(net, trace, d_feats, "features")

        def lc_loss(c, x=x, noise=noise, labels=labels):
            feats = forward(c, x, noise).features
            return clustering_loss(feats, labels, 3.0)[0]

        worst["l_c"] = max(worst["l_c"], finite_diff_check(
            net, lc_loss, grads, h=1e-3, max_coords=32, seed=i))

        # Alignment loss through both domain batches of one student; the
        # mean-gap form shares the shift invariance, hence h = 1e-3 again.
        net, xs, noise_s = kink_free_instance((5000, i), sizes=(3, 6, 3), batch=7,
                                              guard=5e-2)
        for _ in range(50):
            xt = rng.normal(scale=1.2, size=(9, 3))
            noise_t = key_noise(net, xt, int(rng.integers(2 ** 31)))
            if min(float(np.abs(z).min())
                   for z in forward(net, xt, noise_t).pre_activations) > 5e-2:
                break
        ys = rng.integers(3, size=7)
        yt = rng.integers(3, size=9)
        tr_s = forward(net, xs, noise_s)
        tr_t = forward(net, xt, noise_t)
        _, d_s, d_t = alignment_loss(tr_s.features, ys, tr_t.features, yt, 3)
        grads = (backward(net, tr_s, d_s, "features")[0]
                 + backward(net, tr_t, d_t, "features")[0])

        def la_loss(c, xs=xs, xt=xt, noise_s=noise_s, noise_t=noise_t, ys=ys, yt=yt):
            fs = forward(c, xs, noise_s).features
            ft = forward(c, xt, noise_t).features
            return alignment_loss(fs, ys, ft, yt, 3)[0]

        worst["l_a"] = max(worst["l_a"], finite_diff_check(
            net, la_loss, grads, h=1e-3, max_coords=32, seed=i))

        # The critic path of the adversarial loss.
        critic, feats_s, _ = kink_free_instance(
            (6000, i), sizes=(4, 6, 1), batch=6, feature_tap="penultimate"
        )
        feats_t = rng.normal(scale=1.2, size=(8, 4))
        conf = rng.uniform(size=8)
        tr_s = forward(critic, feats_s)
        tr_t = forward(critic, feats_t)
        _, d_cs, d_ct, _ = domain_adversarial_loss(
            tr_s.probabilities[:, 0], tr_t.probabilities[:, 0], conf, 0.5
        )
        grads = (backward(critic, tr_s, d_cs[:, None], "probabilities")[0]
                 + backward(critic, tr_t, d_ct[:, None], "probabilities")[0])

        def ld_loss(c, feats_s=feats_s, feats_t=feats_t, conf=conf):
            ps = forward(c, feats_s).probabilities[:, 0]
            pt = forward(c, feats_t).probabilities[:, 0]
            return domain_adversarial_loss(ps, pt, conf, 0.5)[0]

        worst["l_d_critic"] = max(worst["l_d_critic"], finite_diff_check(
            critic, ld_loss, grads, h=1e-5, max_coords=32, seed=i))

    ok = worst["linear"] <= 1e-10 and all(
        worst[k] <= 1e-4 for k in ("l_y", "l_c", "l_a", "l_d_critic")
    )
    report(3, ok, "worst rel. err " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_criterion_4_loss_oracles():
    worst_cluster = 0.0
    for i in range(100):
        rng = seeded_rng(7000, i)
        n = int(rng.integers(2, 33))
        d = int(rng.integers(1, 9))
        feats = rng.normal(size=(n, d))
        labels = rng.integers(3, size=n)
        loss, _ = clustering_loss(feats, labels, 2.5)
        worst_cluster = max(worst_cluster, abs(loss - brute_force_clustering(feats, labels, 2.5)))

    worst_align = 0.0
    for i in range(100):
        rng = seeded_rng(8000, i)
        ns, nt = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        d = int(rng.integers(1, 6))
        sf, tf = rng.normal(size=(ns, d)), rng.normal(size=(nt, d))
        sl, tl = rng.integers(3, size=ns), rng.integers(3, size=nt)
        loss, _, _ = alignment_loss(sf, sl, tf, tl, 3)
        worst_align = max(worst_align, abs(loss - brute_force_alignment(sf, sl, tf, tl, 3)))

    # Absent-class removal: class 1 in source only; the present class-0 term
    # (squared mean gap 1.0) stands alone.
    absent_loss, _, _ = alignment_loss(
        np.array([[0.0, 0.0], [2.0, 0.0], [9.0, 9.0]]), np.array([0, 0, 1]),
        np.array([[0.0, 0.0]]), np.array([0]), 2,
    )
    absent_err = abs(absent_loss - 1.0)

    ok = worst_cluster <= 1e-10 and worst_align <= 1e-10 and absent_err <= 1e-10
    report(4, ok, f"clustering err {worst_cluster:.2e}, alignment err {worst_align:.2e}, "
                  f"absent-class err {absent_err:.2e}")


def test_criterion_5_teacher_exactness():
    worst = 0.0
    for i in range(20):
        rng = seeded_rng(9000, i)
        decay = float(rng.uniform(0.05, 0.95))
        state = init_teacher(1, 4)
        preds = []
        for _ in range(20):
            row = rng.uniform(size=4)
            row /= row.sum()
            # The training step's teacher: a read of the batch rows, then
            # their update.
            read, state = temporal_step(state, np.array([0]), row[None, :], decay)
            if preds:
                worst = max(worst, float(np.max(np.abs(read[0] - ewma_oracle(preds, decay)))))
            preds.append(row)
        worst = max(worst, float(np.max(np.abs(
            corrected_probabilities(state, decay)[0] - ewma_oracle(preds, decay)
        ))))

    net, x, _ = kink_free_instance(9100, sizes=(3, 8, 2), dropout=0.0)
    pi = pi_predict(net, x, key_noise(net, x, 77))
    student = forward(net, x).probabilities
    exact = np.array_equal(pi, student)

    ok = worst <= 1e-10 and exact
    report(5, ok, f"ensemble err {worst:.2e}, pi==student {exact}")


def test_criterion_6_clustering_accuracy_gain(imbalanced_cat, imbalanced_marginal):
    cat = float(np.mean([r["metrics"][-1].cluster_acc for r in imbalanced_cat]))
    marginal = float(np.mean(
        [r["metrics"][-1].cluster_acc for r in imbalanced_marginal]
    ))
    ok = cat >= marginal + 0.05
    report(6, ok, f"CAT cluster acc {cat:.3f} >= marginal {marginal:.3f} + 0.05")


def test_criterion_7_selection_rate_dynamics(imbalanced_cat):
    oks, details = [], []
    for run in imbalanced_cat:
        series = [m.selection_rate for m in run["metrics"]]
        window = max(1, round(0.1 * len(series)))
        first = float(np.mean(series[:window]))
        last = float(np.mean(series[-window:]))
        oks.append(last >= first and last >= 0.95)
        details.append(f"{first:.3f}->{last:.3f}")
    report(7, all(oks), "initial->final window means " + ", ".join(details))


def test_criterion_8_jsd_proxy_convergence(imbalanced_cat, multimode_cat):
    details, oks = [], []
    for name, runs in (("imbalanced", imbalanced_cat), ("multimode", multimode_cat)):
        pretrain_end, final = [], []
        for run in runs:
            pre = [m for m in run["metrics"] if m.iteration == run["pretrain"]]
            pretrain_end.append(pre[0].jsd_proxy)
            final.append(run["metrics"][-1].jsd_proxy)
        end_mean, pre_mean = float(np.mean(final)), float(np.mean(pretrain_end))
        oks.append(end_mean <= pre_mean)
        details.append(f"{name} {pre_mean:.3f}->{end_mean:.3f}")
    report(8, all(oks), ", ".join(details))


def test_criterion_9_byte_identical_runs(tmp_path):
    config = {
        "scenario": "imbalanced_gaussians",
        "seeds": [0, 1],
        "eval_every": 20,
        "dataset": {"n_major": 60, "n_minor": 12},
        "train": {"total_iters": 60, "pretrain_iters": 10,
                  "batch_source": 16, "batch_target": 16,
                  "hidden_layers": [8], "critic_hidden": 8},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(path), "--output-dir", str(dir_a)]) == 0
    assert main(["run", str(path), "--output-dir", str(dir_b)]) == 0
    identical = all(
        (dir_a / f"metrics_{s}.csv").read_bytes() == (dir_b / f"metrics_{s}.csv").read_bytes()
        for s in (0, 1)
    )
    report(9, identical, "metrics CSVs byte-identical across reruns")


def _idx_paths():
    root = os.environ.get("CLUSTERALIGN_IDX_DIR", "data/idx")
    names = {
        "source_images": "train-images-idx3-ubyte",
        "source_labels": "train-labels-idx1-ubyte",
        "target_images": "usps-images-idx3-ubyte",
        "target_labels": "usps-labels-idx1-ubyte",
    }
    paths = {k: os.path.join(root, v) for k, v in names.items()}
    return paths if all(os.path.exists(p) for p in paths.values()) else None


def test_criterion_10_idx_smoke():
    paths = _idx_paths()
    if paths is None:
        pytest.skip("IDX digit files not present; smoke test skipped")
    src_x, src_y = load_idx(paths["source_images"], paths["source_labels"], 2000, seed=1)
    tgt_x, tgt_y = load_idx(paths["target_images"], paths["target_labels"], 1800, seed=2)
    ds = DomainDataset(src_x, src_y, tgt_x, tgt_y, int(max(src_y.max(), tgt_y.max())) + 1)
    base = dict(total_iters=3000, pretrain_iters=500, margin=30.0, teacher_mode="pi",
                dropout_rate=0.3, hidden_layers=(64, 64), critic_hidden=32,
                feature_tap="logits", lambda_max=2.0, seed=5)
    cat = train(TrainConfig(**base), ds, eval_every=500)[-1].target_acc
    source_only = train(
        TrainConfig(**dict(base, alpha_max=0.0, lambda_max=0.0)), ds, eval_every=500
    )[-1].target_acc
    ok = cat >= source_only + 0.05
    report(10, ok, f"CAT {cat:.3f} vs source-only {source_only:.3f}")
