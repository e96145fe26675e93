import csv
import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from clusteralign import cli
from clusteralign.cli import (
    ConfigError,
    build_train_config,
    config_hash,
    main,
    resolve_config,
)
from clusteralign.evaluate import RunMetrics

from helpers import module_env

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def tiny_raw(**over):
    raw = {
        "scenario": "imbalanced_gaussians",
        "seeds": [0],
        "eval_every": 10,
        "dataset": {"n_major": 40, "n_minor": 8},
        "train": {
            "total_iters": 30, "pretrain_iters": 5,
            "batch_source": 16, "batch_target": 16,
            "hidden_layers": [8], "critic_hidden": 8,
        },
    }
    raw.update(over)
    return raw


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


class TestResolveConfig:
    def test_missing_margin_gets_default_three(self):
        resolved = resolve_config({"scenario": "multimode"})
        assert resolved["train"]["margin"] == 3.0

    def test_imbalanced_preset_overrides_margin(self):
        resolved = resolve_config({"scenario": "imbalanced_gaussians"})
        assert resolved["train"]["margin"] == 30.0
        assert resolved["train"]["lambda_max"] == 2.0

    def test_threshold_out_of_range(self):
        with pytest.raises(ConfigError, match="train.threshold"):
            resolve_config({"scenario": "multimode", "train": {"threshold": 1.5}})

    def test_unknown_ablation_flag_named(self):
        with pytest.raises(ConfigError, match="no_dropout"):
            resolve_config({"scenario": "multimode", "ablation": ["no_dropout"]})

    def test_unknown_train_key_named(self):
        with pytest.raises(ConfigError, match="train.learning_rate"):
            resolve_config({"scenario": "multimode", "train": {"learning_rate": 0.1}})

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            resolve_config({"scenario": "office31"})

    def test_idx_requires_paths(self):
        with pytest.raises(ConfigError, match="dataset.source_images"):
            resolve_config({"scenario": "idx_digits"})

    @pytest.mark.parametrize("field, raw", [
        ("seeds", {"seeds": [True]}),
        ("eval_every", {"eval_every": True}),
        ("train.threshold", {"train": {"threshold": "abc"}}),
        ("train.margin", {"train": {"margin": "3"}}),
        ("train.pretrain_iters", {"train": {"pretrain_iters": "10"}}),
        ("train.total_iters", {"train": {"total_iters": None}}),
    ])
    def test_wrong_type_named(self, field, raw):
        with pytest.raises(ConfigError, match=field):
            resolve_config(dict({"scenario": "multimode"}, **raw))

    def test_defaults_are_seed_independent_hash(self):
        a = config_hash(resolve_config({"scenario": "multimode"}))
        b = config_hash(resolve_config({"scenario": "multimode"}))
        assert a == b and len(a) == 64

    @pytest.mark.parametrize("name, digest", [
        ("imbalanced", "351b8beaf26a62a5dd610b492a9e04028299f5654d5fa3806fd9c516ff90eab7"),
        ("imbalanced_marginal_only",
         "56930d65517fbb766738f0e6928fb05e4912910821805cbfd02ee44df277c664"),
        ("multimode", "ff85399c411c1c04eff925f8c1e1f81e0a000d6ecc51aff8bd68ec3b8e10692b"),
    ])
    def test_shipped_preset_hash_is_pinned(self, name, digest):
        raw = json.loads((CONFIGS / f"{name}.json").read_text())
        assert config_hash(resolve_config(raw)) == digest


# Each probe is a malformed config that once passed `validate` or ended in
# a traceback; the first element names the field the error must report.
PROBES = [
    ("train", {"train": []}),
    ("dataset", {"dataset": []}),
    ("train.hidden_layers", {"train": {"hidden_layers": 5}}),
    ("dataset.n_major", {"dataset": {"n_major": "10"}}),
    ("seeds", {"seeds": [-1]}),
    ("train.lr_base", {"train": {"lr_base": -1}}),
    ("train.decay", {"train": {"decay": 1.5}}),
    ("train.momentum", {"train": {"momentum": 1.0}}),
    ("train.dropout_rate", {"train": {"dropout_rate": 1.0}}),
    ("train.activation", {"train": {"activation": "gelu"}}),
    ("train.feature_tap", {"train": {"feature_tap": "middle"}}),
    # A config that names a clustering metric, once a train key, is refused.
    ("train.metric", {"train": {"metric": "euclidean"}}),
    # Both batch keys, or the equality check below fires first.
    ("train.batch_source", {"train": {"batch_source": 5000, "batch_target": 5000}}),
    ("train.batch_target", {"train": {"batch_target": 8}}),
    ("train.teacher_mode", {"train": {"teacher_mode": "ema"}}),
    ("train.alpha_max", {"train": {"alpha_max": -1.0}}),
    ("dataset.modes_per_class", {"scenario": "multimode", "dataset": {"modes_per_class": 1}}),
    ("output_dir", {"output_dir": 5}),
    ("train.ramp_length", {"train": {"ramp_length": -5}}),
    # Squared distances of these coordinates overflow; once such a config
    # validated, and `run` failed in the first snapshot's k-means.
    ("dataset: coordinates reach 1e+200",
     {"dataset": {"source_means": [[1e200, 0.0], [2.0, 0.0]]}}),
    ("dataset.ring_radius", {"scenario": "multimode",
                             "dataset": {"ring_radius": 1e308, "extra_radius": 1e308}}),
    ("dataset.sigma", {"dataset": {"sigma": 1e308}}),
    ("dataset.source_means must be two 2-D points", {"dataset": {"source_means": [[1], [1, 2]]}}),
    ("dataset.target_means must be two 2-D points",
     {"dataset": {"target_means": [[1, 2], [1, 2, 3]]}}),
    ("ablation: must be distinct", {"ablation": ["no_Lc", "no_Lc"]}),
]


def probe_raw(over):
    """The tiny config with the probe's keys; a train probe keeps the
    other tiny train values so that only the probed field is wrong."""
    raw = tiny_raw(**over)
    if isinstance(over.get("train"), dict):
        raw["train"] = dict(tiny_raw()["train"], **over["train"])
    return raw


# A second probe of the seeds field takes its own id.
@pytest.mark.parametrize("field, over", PROBES + [("seeds: must be distinct", {"seeds": [0, 0]})],
                         ids=[field for field, _ in PROBES] + ["repeated_seeds"])
def test_malformed_value_exits_2_before_any_file(tmp_path, capsys, field, over):
    path = write_config(tmp_path, probe_raw(over))
    assert main(["validate", path]) == 2
    assert field in capsys.readouterr().err
    assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_feature_tap_message_names_the_automatic_choice(tmp_path, capsys):
    path = write_config(tmp_path, probe_raw({"train": {"feature_tap": "middle"}}))
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert 'train.feature_tap must be one of penultimate, logits or ""' in err
    assert "automatic" in err


class TestAblationFlags:
    def test_marginal_only_zeroes_alpha(self):
        resolved = resolve_config(tiny_raw(ablation=["marginal_only"]))
        cfg = build_train_config(resolved, 0)
        assert cfg.alpha_max == 0.0

    def test_flags_compose(self):
        resolved = resolve_config(
            tiny_raw(ablation=["no_Lc", "no_La", "no_rRevGrad_threshold", "no_teacher"])
        )
        cfg = build_train_config(resolved, 0)
        assert not cfg.use_clustering
        assert not cfg.use_alignment
        assert cfg.threshold == 0.0
        assert cfg.teacher_mode == "self"


class TestValidateCommand:
    def test_validate_prints_resolved(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_raw())
        assert main(["validate", path]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["train"]["margin"] == 30.0
        assert printed["train"]["decay"] == 0.6
        assert printed["seeds"] == [0]

    def test_validate_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_raw(train={"margin": -1}))
        assert main(["validate", path]) == 2
        assert "train.margin" in capsys.readouterr().err

    @pytest.mark.parametrize("field, raw", [
        ("seeds", {"seeds": [True]}),
        ("eval_every", {"eval_every": True}),
        ("train.threshold", {"train": {"threshold": "abc"}}),
    ])
    def test_wrong_type_exits_2(self, tmp_path, capsys, field, raw):
        path = write_config(tmp_path, tiny_raw(**raw))
        assert main(["validate", path]) == 2
        assert field in capsys.readouterr().err
        assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/config.json"]) == 2

    # Each size asks for a first array of 142 PiB, which fails at once
    # without touching memory. A size that fits in virtual memory would be
    # allocated and filled, so none is tried here.
    @pytest.mark.parametrize("section, raw", [
        ("dataset", {"dataset": {"n_major": 10**16}}),
        ("train", {"train": {"hidden_layers": [10**16]}}),
    ])
    def test_unallocatable_size_exits_2_naming_its_section(self, tmp_path, capsys,
                                                           section, raw):
        path = write_config(tmp_path, {"scenario": "imbalanced_gaussians", **raw})
        assert main(["validate", path]) == 2
        assert f"invalid config: {section}: Unable to allocate" in capsys.readouterr().err


class TestRunCommand:
    def test_run_writes_all_outputs(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_raw(seeds=[0, 1, 2]))
        out_dir = tmp_path / "out"
        assert main(["run", path, "--output-dir", str(out_dir)]) == 0

        summary = json.loads((out_dir / "summary.json").read_text())
        finals = summary["final_target_accuracy"]
        assert sorted(finals["per_seed"]) == ["0", "1", "2"]
        assert 0.0 <= finals["mean"] <= 1.0
        assert finals["std"] >= 0.0
        assert "±" in finals["formatted"]
        assert len(summary["config_hash"]) == 64

        metrics = (out_dir / "metrics_0.csv").read_text().strip().split("\n")
        assert metrics[0] == (
            "iteration,target_acc,source_acc,cluster_acc,jsd_proxy,"
            "selection_rate,l_y,l_c,l_a,l_d"
        )
        assert len(metrics) == 1 + 30 // 10 + 1

        features = (out_dir / "features_0.csv").read_text().strip().split("\n")
        assert features[0] == "domain,true_class,pseudo_class,confidence,f0,f1"
        assert len(features) == 1 + 48 + 48

        dataset = (out_dir / "dataset_0.csv").read_text().strip().split("\n")
        assert dataset[0] == "domain,class,x0,x1"

    def test_run_is_byte_deterministic(self, tmp_path):
        path = write_config(tmp_path, tiny_raw())
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", path, "--output-dir", str(dir_a)]) == 0
        assert main(["run", path, "--output-dir", str(dir_b)]) == 0
        for name in ("metrics_0.csv", "features_0.csv", "dataset_0.csv", "summary.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    @pytest.mark.parametrize("train, ablation", [
        ({"teacher_mode": "pi", "dropout_rate": 0.3, "threshold": 0.7}, []),
        ({"threshold": 0.8}, ["no_teacher"]),
    ], ids=["pi", "no_teacher"])
    def test_features_agree_with_last_selection_rate(self, tmp_path, train, ablation):
        # The features file and the last metrics row must show one
        # teacher view: a Pi teacher draws a dropout pass per view, and
        # the self-teacher reads the student's eval forward.
        raw = tiny_raw(ablation=ablation)
        raw["train"] = dict(raw["train"], **train)
        path = write_config(tmp_path, raw)
        out_dir = tmp_path / "out"
        assert main(["run", path, "--output-dir", str(out_dir)]) == 0
        last = (out_dir / "metrics_0.csv").read_text().strip().split("\n")[-1].split(",")
        features = (out_dir / "features_0.csv").read_text().strip().split("\n")[1:]
        target = [float(row.split(",")[3]) for row in features if row.startswith("target,")]
        assert int(last[0]) == 30
        rate = float(last[5])
        assert 0.0 < rate < 1.0
        assert sum(c > train["threshold"] for c in target) / len(target) == rate

    def test_outputs_show_the_final_state_when_eval_every_does_not_divide(self, tmp_path):
        raw = tiny_raw(eval_every=7)
        raw["train"] = dict(raw["train"], threshold=0.7)
        path = write_config(tmp_path, raw)
        out_dir = tmp_path / "out"
        assert main(["run", path, "--output-dir", str(out_dir)]) == 0
        rows = (out_dir / "metrics_0.csv").read_text().strip().split("\n")[1:]
        assert [int(row.split(",")[0]) for row in rows] == [0, 7, 14, 21, 28, 30]
        last = rows[-1].split(",")
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["final_target_accuracy"]["per_seed"]["0"] == float(last[1])
        features = (out_dir / "features_0.csv").read_text().strip().split("\n")[1:]
        target = [float(row.split(",")[3]) for row in features if row.startswith("target,")]
        assert sum(c > 0.7 for c in target) / len(target) == float(last[5])

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path, tiny_raw())
        out_dir = tmp_path / "out"
        assert main(["run", path, "--seed-override", "7", "--output-dir", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert list(summary["final_target_accuracy"]["per_seed"]) == ["7"]
        assert (out_dir / "metrics_7.csv").exists()

    @pytest.mark.parametrize("override", ["-1", "0,x", "0,0", ""])
    def test_seed_override_is_checked_like_config_seeds(self, tmp_path, capsys, override):
        path = write_config(tmp_path, tiny_raw())
        out_dir = tmp_path / "out"
        assert main(["run", path, f"--seed-override={override}",
                     "--output-dir", str(out_dir)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_empty_output_dir_exits_2_before_any_file(self, tmp_path, capsys):
        config_dir = tmp_path / "config_out"
        path = write_config(tmp_path, tiny_raw(output_dir=str(config_dir)))
        assert main(["run", path, "--output-dir="]) == 2
        assert "--output-dir" in capsys.readouterr().err
        assert not config_dir.exists()

    def test_invalid_config_exits_2(self, tmp_path):
        path = write_config(tmp_path, tiny_raw(ablation=["bogus"]))
        assert main(["run", path]) == 2

    def test_bad_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2
        assert "broken.json" in capsys.readouterr().err


def test_metrics_csv_puts_each_field_under_its_column(tmp_path):
    columns = {
        "iteration": "iteration", "target_accuracy": "target_acc",
        "source_accuracy": "source_acc", "clustering_accuracy": "cluster_acc",
        "jsd_proxy": "jsd_proxy", "selection_rate": "selection_rate",
        "l_y": "l_y", "l_c": "l_c", "l_a": "l_a", "l_d": "l_d",
    }
    values = {field: 0.125 * (i + 1) for i, field in enumerate(columns)}
    values["iteration"] = 7
    path = tmp_path / "metrics.csv"
    cli.write_metrics_csv([RunMetrics(**values)], path)
    assert path.read_text().splitlines()[0] == ",".join(columns.values())
    with open(path, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert {field: row[column] for field, column in columns.items()} == {
        field: repr(value) for field, value in values.items()
    }


def test_module_entry_point_runs_main(tmp_path):
    env = module_env()
    path = write_config(tmp_path, tiny_raw())
    ok = subprocess.run([sys.executable, "-m", "clusteralign.cli", "validate", path],
                        capture_output=True, text=True, env=env)
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["seeds"] == [0]
    bad = subprocess.run([sys.executable, "-m", "clusteralign.cli", "validate",
                          str(tmp_path / "missing.json")], capture_output=True, text=True, env=env)
    assert bad.returncode == 2


def test_validate_and_run_never_import_numpy_ma(tmp_path):
    # numpy.ma costs every process 1.2 MiB; np.unique without counts imports
    # it to ask whether its array is masked. A fresh process shows it.
    path = write_config(tmp_path, tiny_raw(seeds=[0, 1]))
    code = ("import sys\n"
            "from clusteralign.cli import main\n"
            "assert main(['validate', sys.argv[1]]) == 0\n"
            "assert main(['run', sys.argv[1], '--output-dir', sys.argv[2]]) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code, path, str(tmp_path / "out")],
                          capture_output=True, text=True, env=module_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


# Two short runs that reach both presets' feature widths: the imbalanced
# defaults (2-D logits), and a multimode Pi teacher with dropout (16-D
# penultimate features).
THREAD_CONFIGS = {
    "imbalanced": {"scenario": "imbalanced_gaussians", "train": {}},
    "multimode_pi": {"scenario": "multimode", "train": {
        "teacher_mode": "pi", "dropout_rate": 0.3}},
}


@pytest.mark.parametrize("name", THREAD_CONFIGS)
def test_run_outputs_do_not_depend_on_blas_threads(tmp_path, name):
    raw = dict(THREAD_CONFIGS[name], seeds=[0], eval_every=100)
    raw["train"] = dict(raw["train"], total_iters=300, pretrain_iters=100)
    path = write_config(tmp_path, raw)
    outputs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"threads_{threads}"
        subprocess.run([sys.executable, "-m", "clusteralign.cli", "run", path,
                        "--output-dir", str(out_dir)], check=True, capture_output=True,
                       env=module_env(OPENBLAS_NUM_THREADS=threads))
        outputs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
    assert sorted(outputs[0]) == ["dataset_0.csv", "features_0.csv", "metrics_0.csv",
                                  "summary.json"]
    assert outputs[0] == outputs[1]


def run_cli(path, out_dir, seeds):
    """One `run` of a config file in a fresh process, on the given seeds."""
    return subprocess.run([sys.executable, "-m", "clusteralign.cli", "run", path,
                           "--seed-override", ",".join(map(str, seeds)),
                           "--output-dir", str(out_dir)],
                          capture_output=True, text=True, env=module_env())


# A dropout student with the temporal teacher, and the multimode Pi
# teacher, whose third forward pass draws its own dropout masks.
GROUP_CONFIGS = {
    "imbalanced_dropout_temporal": {"scenario": "imbalanced_gaussians",
                                    "train": {"dropout_rate": 0.2}},
    "multimode_pi": THREAD_CONFIGS["multimode_pi"],
}


@pytest.mark.parametrize("name", GROUP_CONFIGS)
def test_seeds_trained_together_write_the_bytes_of_seeds_run_alone(tmp_path, name):
    raw = dict(GROUP_CONFIGS[name], eval_every=100)
    raw["train"] = dict(raw["train"], total_iters=300, pretrain_iters=100)
    path = write_config(tmp_path, raw)
    seeds = [0, 1, 2]
    assert run_cli(path, tmp_path / "group", seeds).returncode == 0
    group = json.loads((tmp_path / "group" / "summary.json").read_text())
    for seed in seeds:
        alone = tmp_path / f"alone_{seed}"
        assert run_cli(path, alone, [seed]).returncode == 0
        for kind in ("metrics", "features", "dataset"):
            name = f"{kind}_{seed}.csv"
            assert (tmp_path / "group" / name).read_bytes() == (alone / name).read_bytes(), name
        summary = json.loads((alone / "summary.json").read_text())
        assert (group["final_target_accuracy"]["per_seed"][str(seed)]
                == summary["final_target_accuracy"]["per_seed"][str(seed)])


def test_run_builds_each_dataset_once(tmp_path, monkeypatch):
    calls = []
    loader = cli.LOADERS["imbalanced_gaussians"]

    @functools.wraps(loader)
    def counting(*args, **kwargs):
        calls.append(kwargs["seed"])
        return loader(*args, **kwargs)

    monkeypatch.setitem(cli.LOADERS, "imbalanced_gaussians", counting)
    path = write_config(tmp_path, tiny_raw(seeds=[0, 1]))
    assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 0
    assert len(calls) == 2 and len(set(calls)) == 2


@pytest.mark.parametrize("seeds", [[0], [0, 1]], ids=["one-seed", "two-seeds"])
def test_overflowing_step_exits_1_naming_its_iteration(tmp_path, seeds):
    # A subprocess, because the suite turns the overflow's RuntimeWarnings
    # into errors.
    raw = tiny_raw(seeds=seeds)
    raw["train"] = dict(raw["train"], lr_base=1000)
    path = write_config(tmp_path, raw)
    out_dir = tmp_path / "out"
    done = subprocess.run([sys.executable, "-m", "clusteralign.cli", "run", path,
                           "--output-dir", str(out_dir)],
                          capture_output=True, text=True, env=module_env())
    assert done.returncode == 1
    named = re.search(r"run failed: seed (\d+): .*at iteration \d+", done.stderr)
    assert named and int(named.group(1)) in seeds, done.stderr
    for seed in seeds:
        assert (out_dir / f"dataset_{seed}.csv").exists()
    assert not (out_dir / "summary.json").exists()


@pytest.mark.parametrize("offset", [1e20, 4e153], ids=["inertia-rises", "kmeans-pp-overflows"])
def test_failing_kmeans_exits_1_naming_seed_and_iteration(tmp_path, offset):
    # Features near 1e20 cancel in the Gram-form k-means scores, so a
    # Lloyd step raises the inertia; near the dataset bound the k-means++
    # weights overflow their sum. A subprocess, so that stderr is the
    # whole of what the run prints.
    raw = tiny_raw(dataset={"n_major": 40, "n_minor": 8,
                            "source_means": [[offset, 0.0], [2.0, 0.0]]})
    path = write_config(tmp_path, raw)
    done = subprocess.run([sys.executable, "-m", "clusteralign.cli", "run", path,
                           "--output-dir", str(tmp_path / "out")],
                          capture_output=True, text=True, env=module_env())
    assert done.returncode == 1
    assert done.stderr.startswith("run failed: seed 0: evaluation failed at iteration 0: "), \
        done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out" / "summary.json").exists()
