"""Experiment runner: JSON configs, scenario presets, seed sweeps, exports.

Config files are JSON with two sections plus a few top-level keys::

    {
      "scenario": "imbalanced_gaussians",   # or multimode, idx_digits
      "seeds": [0, 1, 2],
      "output_dir": "runs/example",
      "eval_every": 500,
      "ablation": [],                        # subset of ABLATION_FLAGS
      "dataset": { ... scenario loader parameters ... },
      "train":   { ... TrainConfig fields ... }
    }

The schema is the code's own: the `train` keys and defaults are the
TrainConfig fields (with the scenario's preset overrides), the `dataset`
keys and defaults are the parameters of the scenario's loader, and each
value must have the type of its default. Ranges are checked by building
what the first seed's run builds. `validate` prints the fully resolved
config. `run` builds every seed's dataset and writes dataset_<seed>.csv
for each, trains all seeds together as one group, then writes
metrics_<seed>.csv and features_<seed>.csv in seed order; summary.json
aggregates the final target accuracies (population std, Table-style
"mean ± std" cell).
"""

import argparse
import hashlib
import inspect
import json
import math
import os
import sys
from dataclasses import astuple, fields

import numpy as np

from clusteralign.data import (
    DomainDataset,
    dump_dataset_csv,
    load_idx_domains,
    make_imbalanced_gaussians,
    make_multimode_domains,
    write_csv,
)
from clusteralign.seeding import derive_seed
from clusteralign.teacher import pseudo_labels
from clusteralign.trainer import TrainConfig, TrainingAbort, init_train_state, run_training

LOADERS = {
    "imbalanced_gaussians": make_imbalanced_gaussians,
    "multimode": make_multimode_domains,
    "idx_digits": load_idx_domains,
}
SCENARIOS = tuple(LOADERS)
# Each ablation flag as the TrainConfig fields it overrides.
ABLATIONS = {
    "no_Lc": {"use_clustering": False},
    "no_La": {"use_alignment": False},
    "no_rRevGrad_threshold": {"threshold": 0.0},
    "no_teacher": {"teacher_mode": "self"},
    "marginal_only": {"alpha_max": 0.0},
}
ABLATION_FLAGS = tuple(ABLATIONS)

# One column per evaluate.RunMetrics field, in field order.
METRICS_HEADER = ("iteration", "target_acc", "source_acc", "cluster_acc", "jsd_proxy",
                  "selection_rate", "l_y", "l_c", "l_a", "l_d")

# The features export turns at most this many rows at a time into Python
# values: a whole domain's lists at once would set a run's peak memory.
_EXPORT_ROWS = 256

# TrainConfig fields set from the seed and the ablation flags, not config keys.
_FLAG_FIELDS = ("seed", "use_clustering", "use_alignment")

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

# The default of a loader parameter that has none: a required path.
_REQUIRED = inspect.Parameter.empty


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""


def _fail(errors):
    raise ConfigError("\n".join(errors))


def _is_int(value) -> bool:
    # bool is an int subclass, but true/false are not counts or seeds.
    return isinstance(value, int) and not isinstance(value, bool)


def _fits(value, default) -> bool:
    """Whether a JSON value has the type of a parameter's default."""
    if default is _REQUIRED:
        return isinstance(value, str) and value != ""
    if isinstance(default, bool):
        return isinstance(value, bool)
    if isinstance(default, int):
        return _is_int(value)
    if isinstance(default, float):
        return _is_int(value) or (isinstance(value, float) and math.isfinite(value))
    if isinstance(default, (tuple, list)):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    return isinstance(value, type(default))


def _kind(default) -> str:
    if default is _REQUIRED:
        return "a non-empty path string"
    if isinstance(default, (tuple, list)):
        return f"a list like {json.dumps(default)}"
    return {bool: "true or false", int: "an integer", float: "a finite number",
            str: "a string"}[type(default)]


def _section(raw: dict, name: str, defaults: dict, errors: list) -> dict:
    """One config section merged over its defaults, keys and types checked."""
    given = raw.get(name, {})
    if not isinstance(given, dict):
        errors.append(f"{name}: must be a JSON object")
        given = {}
    merged = dict(defaults)
    for key, value in given.items():
        if key not in defaults:
            errors.append(f"{name}.{key}: unknown key")
        elif not _fits(value, defaults[key]):
            errors.append(f"{name}.{key}: must be {_kind(defaults[key])}; got {value!r}")
        else:
            merged[key] = value
    for key, default in defaults.items():
        if default is _REQUIRED and key not in given:
            errors.append(f"{name}.{key}: required for scenario {raw['scenario']}")
    return merged


def _field_message(section: str, exc: Exception, keys) -> str:
    """A constructor's message under its section, as section.field when it
    leads with a parameter name."""
    message = str(exc)
    if message.split(" ", 1)[0] in keys:
        return f"{section}.{message}"
    return f"{section}: {message}"


def resolve_config(raw: dict) -> dict:
    """Apply scenario defaults, check every key's type, and check the
    values by building the dataset, TrainConfig and training state of
    the first seed; a size that cannot be allocated fails that check."""
    return _resolve(raw)[0]


def _resolve(raw: dict):
    """resolve_config's resolved dict, and the first seed's dataset it
    built."""
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
    if not (_fits(seeds, [0]) and seeds and min(seeds) >= 0):
        errors.append("seeds: must be a non-empty list of nonnegative integers")
    elif len(set(seeds)) < len(seeds):
        errors.append(f"seeds: must be distinct; got {seeds!r}")

    output_dir = raw.get("output_dir", os.path.join("runs", scenario))
    if not isinstance(output_dir, str) or not output_dir:
        errors.append("output_dir: must be a non-empty string")

    eval_every = raw.get("eval_every", 500)
    if not _is_int(eval_every) or eval_every < 1:
        errors.append("eval_every: must be a positive integer")

    ablation = raw.get("ablation", [])
    if not isinstance(ablation, list):
        errors.append("ablation: must be a list of flags")
        ablation = []
    unknown = [flag for flag in ablation if flag not in ABLATION_FLAGS]
    for flag in unknown:
        errors.append(f"ablation: unknown flag {flag!r}")
    if not unknown and len(set(ablation)) < len(ablation):
        errors.append(f"ablation: must be distinct; got {ablation!r}")

    loader_params = inspect.signature(LOADERS[scenario]).parameters.values()
    dataset = _section(raw, "dataset", {
        p.name: p.default for p in loader_params if p.name != "seed"
    }, errors)
    train_defaults = {
        f.name: f.default for f in fields(TrainConfig) if f.name not in _FLAG_FIELDS
    }
    train = _section(raw, "train",
                     dict(train_defaults, **_TRAIN_PRESET_OVERRIDES[scenario]), errors)

    if errors:
        _fail(errors)

    # The JSON round trip turns tuple defaults into lists and copies the
    # caller's values.
    resolved = json.loads(json.dumps({
        "scenario": scenario,
        "seeds": seeds,
        "output_dir": output_dir,
        "eval_every": eval_every,
        "ablation": sorted(ablation),
        "dataset": dataset,
        "train": train,
    }))
    try:
        ds = build_dataset(resolved, seeds[0])
    except (ValueError, OSError, MemoryError) as exc:
        _fail([_field_message("dataset", exc, dataset)])
    # Built without the ablation flags, which overwrite threshold and
    # alpha_max with valid values and would hide a bad one.
    try:
        init_train_state(build_train_config(dict(resolved, ablation=[]), seeds[0]), ds)
    except (ValueError, MemoryError) as exc:
        _fail([_field_message("train", exc, train)])
    return resolved, ds


def config_hash(resolved: dict) -> str:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_train_config(resolved: dict, seed: int) -> TrainConfig:
    train = dict(resolved["train"])
    for flag in resolved["ablation"]:
        train.update(ABLATIONS[flag])
    return TrainConfig(seed=derive_seed(seed, 2), **train)


def build_dataset(resolved: dict, seed: int) -> DomainDataset:
    return LOADERS[resolved["scenario"]](seed=derive_seed(seed, 1), **resolved["dataset"])


def write_metrics_csv(metrics, path) -> None:
    write_csv(path, METRICS_HEADER, map(astuple, metrics))


def write_features_csv(view, ds, path) -> None:
    """A run's final eval-mode features (an evaluate.StateView) with true
    labels and teacher annotations."""
    src_pred, src_conf = pseudo_labels(view.source_probabilities)
    header = ["domain", "true_class", "pseudo_class", "confidence",
              *(f"f{i}" for i in range(view.source_features.shape[1]))]
    write_csv(path, header, (
        [domain, y, p_cls, c, *row]
        for domain, feats, true_y, pseudo, conf in (
            ("source", view.source_features, ds.source_y, src_pred, src_conf),
            ("target", view.target_features, ds.target_y_hidden,
             view.teacher_labels, view.teacher_confidences),
        )
        for start in range(0, len(feats), _EXPORT_ROWS)
        for row, y, p_cls, c in zip(*(a[start:start + _EXPORT_ROWS].tolist()
                                      for a in (feats, true_y, pseudo, conf)))
    ))


def run_experiment(resolved: dict, output_dir: str, first_dataset: DomainDataset) -> dict:
    """Write every seed's dataset, train the seeds as one group, then
    write each seed's metrics and features and the summary. first_dataset
    is the first seed's dataset, which resolving the config has built.
    An abort names the seed and leaves only the dataset files."""
    os.makedirs(output_dir, exist_ok=True)
    seeds = resolved["seeds"]
    datasets = [first_dataset] + [build_dataset(resolved, seed) for seed in seeds[1:]]
    for seed, ds in zip(seeds, datasets):
        dump_dataset_csv(ds, os.path.join(output_dir, f"dataset_{seed}.csv"))
    cfgs = [build_train_config(resolved, seed) for seed in seeds]
    try:
        _, logs, views = run_training(cfgs, datasets, resolved["eval_every"])
    except TrainingAbort as exc:
        raise TrainingAbort(f"seed {seeds[exc.details['seed_index']]}: {exc}",
                            exc.details) from exc
    finals = {}
    for seed, ds, metrics, view in zip(seeds, datasets, logs, views):
        write_metrics_csv(metrics, os.path.join(output_dir, f"metrics_{seed}.csv"))
        write_features_csv(view, ds, os.path.join(output_dir, f"features_{seed}.csv"))
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


def _parse_seeds(text):
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise ConfigError("--seed-override: expected comma-separated integers")


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
        raw = _load_config(args.config)
        if args.command == "run" and args.seed_override is not None and isinstance(raw, dict):
            raw["seeds"] = _parse_seeds(args.seed_override)
        if args.command == "run" and args.output_dir == "":
            raise ConfigError("--output-dir: must be a non-empty path")
        resolved, first_dataset = _resolve(raw)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(json.dumps(resolved, indent=2, sort_keys=True))
        return 0

    output_dir = resolved["output_dir"] if args.output_dir is None else args.output_dir
    try:
        summary = run_experiment(resolved, output_dir, first_dataset)
    except (TrainingAbort, OSError, ValueError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary["final_target_accuracy"], sort_keys=True))
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
