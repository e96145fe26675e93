"""Experiment runner: JSON configs, scenario presets, seed sweeps, exports.

Config files are JSON with two sections plus a few top-level keys::

    {
      "scenario": "imbalanced_gaussians",   # or multimode, idx_digits
      "seeds": [0, 1, 2],
      "output_dir": "runs/example",
      "eval_every": 500,
      "ablation": [],                        # subset of ABLATION_FLAGS
      "dataset": { ... scenario knobs ... },
      "train":   { ... TrainConfig knobs ... }
    }

Every omitted key takes its preset default; `validate` prints the fully
resolved config. Each seed writes metrics_<seed>.csv, features_<seed>.csv
and dataset_<seed>.csv, then summary.json aggregates the final target
accuracies (population std, Table-style "mean ± std" cell).
"""

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from clusteralign.data import (
    DomainDataset,
    dump_dataset_csv,
    load_idx,
    make_imbalanced_gaussians,
    make_multimode_domains,
)
from clusteralign.evaluate import teacher_view
from clusteralign.network import forward
from clusteralign.seeding import derive_seed
from clusteralign.trainer import TrainConfig, TrainingAbort, run_training

SCENARIOS = ("imbalanced_gaussians", "multimode", "idx_digits")
ABLATION_FLAGS = (
    "no_Lc",
    "no_La",
    "no_rRevGrad_threshold",
    "no_teacher",
    "marginal_only",
)

METRICS_HEADER = (
    "iteration,target_acc,source_acc,cluster_acc,jsd_proxy,"
    "selection_rate,l_y,l_c,l_a,l_d"
)

_DATASET_DEFAULTS = {
    "imbalanced_gaussians": {
        "n_major": 1000,
        "n_minor": 100,
        "source_means": [[-2.0, 0.0], [2.0, 0.0]],
        "target_means": [[-2.0, 2.0], [2.0, 2.0]],
        "sigma": 0.35,
    },
    "multimode": {
        "modes_per_class": 2,
        "rotation_deg": 36.0,
        "n_per_mode": 100,
        "sigma": 0.30,
        "extra_mode": True,
        "ring_radius": 3.0,
        "extra_radius": 6.5,
    },
    "idx_digits": {
        "source_images": None,
        "source_labels": None,
        "target_images": None,
        "target_labels": None,
        "source_subsample": 2000,
        "target_subsample": 1800,
    },
}

_TRAIN_DEFAULTS = {
    "total_iters": 5000,
    "pretrain_iters": 500,
    "batch_source": 64,
    "batch_target": 64,
    "margin": 3.0,
    "threshold": 0.9,
    "alpha_schedule": "logistic",
    "alpha_max": 1.0,
    "lambda_schedule": "same_as_alpha",
    "lambda_max": 1.0,
    "ramp_length": 0,
    "lr_base": 0.01,
    "momentum": 0.9,
    "teacher_mode": "temporal",
    "decay": 0.6,
    "critic_hidden": 16,
    "hidden_layers": [16, 16],
    "activation": "relu",
    "dropout_rate": 0.1,
    "feature_tap": "",
    "metric": "sq_euclidean",
}

# Margins pair with the feature tap: logit features take the large margin
# tuned on the synthetic tasks, penultimate features keep the small one.
_TRAIN_PRESET_OVERRIDES = {
    "imbalanced_gaussians": {
        "margin": 30.0,
        "lambda_max": 2.0,
    },
    "multimode": {
        "feature_tap": "penultimate",
        "lambda_max": 2.0,
    },
    "idx_digits": {
        "margin": 30.0,
        "teacher_mode": "pi",
        "dropout_rate": 0.3,
        "hidden_layers": [64, 64],
        "total_iters": 3000,
        "critic_hidden": 32,
        "feature_tap": "logits",
    },
}


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""


def _fail(errors):
    raise ConfigError("\n".join(errors))


def _is_int(value) -> bool:
    # bool is an int subclass, but true/false are not counts or seeds.
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def resolve_config(raw: dict) -> dict:
    """Apply scenario defaults and validate every documented key."""
    errors = []
    if not isinstance(raw, dict):
        _fail(["config: top level must be a JSON object"])

    scenario = raw.get("scenario")
    if scenario not in SCENARIOS:
        _fail([f"scenario: must be one of {', '.join(SCENARIOS)}; got {scenario!r}"])

    known_top = {"scenario", "seeds", "output_dir", "eval_every", "ablation", "dataset", "train"}
    for key in raw:
        if key not in known_top:
            errors.append(f"{key}: unknown top-level key")

    seeds = raw.get("seeds", [0, 1, 2])
    if (not isinstance(seeds, list) or not seeds
            or not all(_is_int(s) for s in seeds)):
        errors.append("seeds: must be a non-empty list of integers")

    eval_every = raw.get("eval_every", 500)
    if not _is_int(eval_every) or eval_every < 1:
        errors.append("eval_every: must be a positive integer")

    ablation = raw.get("ablation", [])
    if not isinstance(ablation, list):
        errors.append("ablation: must be a list of flags")
        ablation = []
    for flag in ablation:
        if flag not in ABLATION_FLAGS:
            errors.append(f"ablation: unknown flag {flag!r}")

    dataset = dict(_DATASET_DEFAULTS[scenario])
    for key, value in raw.get("dataset", {}).items():
        if key not in dataset:
            errors.append(f"dataset.{key}: unknown key for scenario {scenario}")
        else:
            dataset[key] = value
    if scenario == "idx_digits":
        for key in ("source_images", "source_labels", "target_images", "target_labels"):
            if not dataset[key]:
                errors.append(f"dataset.{key}: required for scenario idx_digits")
    else:
        if not isinstance(dataset.get("sigma"), (int, float)) or dataset["sigma"] <= 0:
            errors.append("dataset.sigma: must be a positive number")

    train = dict(_TRAIN_DEFAULTS)
    train.update(_TRAIN_PRESET_OVERRIDES.get(scenario, {}))
    for key, value in raw.get("train", {}).items():
        if key not in train:
            errors.append(f"train.{key}: unknown key")
        else:
            train[key] = value
    if not _is_number(train["threshold"]) or not 0.0 <= train["threshold"] <= 1.0:
        errors.append("train.threshold: must be a number in [0, 1]")
    if not _is_number(train["margin"]) or not train["margin"] > 0:
        errors.append("train.margin: must be a positive number")
    pretrain, total = train["pretrain_iters"], train["total_iters"]
    for key in ("pretrain_iters", "total_iters"):
        if not _is_int(train[key]):
            errors.append(f"train.{key}: must be an integer")
    if _is_int(pretrain) and _is_int(total) and pretrain >= total:
        errors.append("train.pretrain_iters: must be smaller than train.total_iters")

    if errors:
        _fail(errors)

    return {
        "scenario": scenario,
        "seeds": list(seeds),
        "output_dir": raw.get("output_dir", os.path.join("runs", scenario)),
        "eval_every": eval_every,
        "ablation": sorted(ablation),
        "dataset": dataset,
        "train": train,
    }


def config_hash(resolved: dict) -> str:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_train_config(resolved: dict, seed: int) -> TrainConfig:
    train = dict(resolved["train"])
    train["hidden_layers"] = tuple(train["hidden_layers"])
    flags = resolved["ablation"]
    if "no_Lc" in flags:
        train["use_clustering"] = False
    if "no_La" in flags:
        train["use_alignment"] = False
    if "no_rRevGrad_threshold" in flags:
        train["threshold"] = 0.0
    if "no_teacher" in flags:
        train["self_teacher"] = True
    if "marginal_only" in flags:
        train["alpha_max"] = 0.0
    return TrainConfig(seed=derive_seed(seed, 2), **train)


def build_dataset(resolved: dict, seed: int) -> DomainDataset:
    params = dict(resolved["dataset"])
    data_seed = derive_seed(seed, 1)
    scenario = resolved["scenario"]
    if scenario == "imbalanced_gaussians":
        return make_imbalanced_gaussians(seed=data_seed, **params)
    if scenario == "multimode":
        return make_multimode_domains(seed=data_seed, **params)
    src_x, src_y = load_idx(
        params["source_images"], params["source_labels"],
        params["source_subsample"], derive_seed(data_seed, 0),
    )
    tgt_x, tgt_y = load_idx(
        params["target_images"], params["target_labels"],
        params["target_subsample"], derive_seed(data_seed, 1),
    )
    if src_x.shape[1] != tgt_x.shape[1]:
        raise ConfigError(
            f"dataset: image dims differ between domains "
            f"({src_x.shape[1]} vs {tgt_x.shape[1]}); re-encode to a shared size"
        )
    num_classes = int(max(src_y.max(), tgt_y.max())) + 1
    return DomainDataset(src_x, src_y, tgt_x, tgt_y, num_classes)


def _fmt(value) -> str:
    return repr(float(value))


def write_metrics_csv(metrics, path) -> None:
    with open(path, "w") as fh:
        fh.write(METRICS_HEADER + "\n")
        for m in metrics:
            fh.write(
                ",".join(
                    [str(m.iteration)]
                    + [_fmt(v) for v in (
                        m.target_accuracy, m.source_accuracy, m.clustering_accuracy,
                        m.jsd_proxy, m.selection_rate, m.l_y, m.l_c, m.l_a, m.l_d,
                    )]
                )
                + "\n"
            )


def write_features_csv(state, cfg, ds, path) -> None:
    """Final eval-mode features with true labels and teacher annotations."""
    trace_src = forward(state.student, ds.source_x, mode="eval")
    trace_tgt = forward(state.student, ds.target_x, mode="eval")
    src_pred = np.argmax(trace_src.probabilities, axis=1)
    src_conf = trace_src.probabilities[np.arange(len(src_pred)), src_pred]
    tgt_labels, tgt_conf = teacher_view(
        state.student, state.teacher, ds.target_x, cfg.self_teacher,
        derive_seed(cfg.seed, 23, state.iteration),
    )
    dim = trace_src.features.shape[1]
    header = "domain,true_class,pseudo_class,confidence," + ",".join(
        f"f{i}" for i in range(dim)
    )
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for domain, feats, true_y, pseudo, conf in (
            ("source", trace_src.features, ds.source_y, src_pred, src_conf),
            ("target", trace_tgt.features, ds.target_y_hidden, tgt_labels, tgt_conf),
        ):
            for row, y, p_cls, c in zip(feats, true_y, pseudo, conf):
                fh.write(
                    f"{domain},{int(y)},{int(p_cls)},{_fmt(c)},"
                    + ",".join(_fmt(v) for v in row) + "\n"
                )


def run_experiment(resolved: dict, output_dir: str) -> dict:
    os.makedirs(output_dir, exist_ok=True)
    finals = {}
    for seed in resolved["seeds"]:
        ds = build_dataset(resolved, seed)
        cfg = build_train_config(resolved, seed)
        dump_dataset_csv(ds, os.path.join(output_dir, f"dataset_{seed}.csv"))
        state, metrics = run_training(cfg, ds, resolved["eval_every"])
        write_metrics_csv(metrics, os.path.join(output_dir, f"metrics_{seed}.csv"))
        write_features_csv(state, cfg, ds, os.path.join(output_dir, f"features_{seed}.csv"))
        finals[str(seed)] = metrics[-1].target_accuracy

    values = np.array(list(finals.values()))
    mean = float(values.mean())
    std = float(values.std())
    summary = {
        "scenario": resolved["scenario"],
        "ablation": resolved["ablation"],
        "config_hash": config_hash(resolved),
        "final_target_accuracy": {
            "per_seed": finals,
            "mean": mean,
            "std": std,
            "formatted": f"{100 * mean:.1f} ± {100 * std:.1f}",
        },
    }
    with open(os.path.join(output_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    return summary


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="clusteralign",
        description="Cluster-aligned domain adaptation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="train every seed and export metrics")
    run_p.add_argument("config")
    run_p.add_argument("--seed-override", help="comma-separated seeds replacing the config list")
    run_p.add_argument("--output-dir", help="overrides the config output_dir")

    val_p = sub.add_parser("validate", help="resolve and print the config, no training")
    val_p.add_argument("config")

    args = parser.parse_args(argv)

    try:
        resolved = resolve_config(_load_config(args.config))
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(json.dumps(resolved, indent=2, sort_keys=True))
        return 0

    if args.seed_override:
        try:
            resolved["seeds"] = [int(s) for s in args.seed_override.split(",")]
        except ValueError:
            print("invalid --seed-override: expected comma-separated integers", file=sys.stderr)
            return 2
    output_dir = args.output_dir or resolved["output_dir"]

    try:
        summary = run_experiment(resolved, output_dir)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except (TrainingAbort, OSError, ValueError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary["final_target_accuracy"], sort_keys=True))
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
