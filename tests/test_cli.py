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

# OpenSSL's sha256, bound at import: main blocks OpenSSL in a process that
# has not loaded it, and tests call main in this one.
try:
    from _hashlib import openssl_sha256
except ImportError:
    openssl_sha256 = None

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

    # The case ids name the preset alone, so a re-pinned digest keeps them.
    @pytest.mark.parametrize("name, digest", [
        ("imbalanced", "81fbee59eaa6529c66addd3a0a79eac40f53aea244fda46aa92baba1d4b0722c"),
        ("imbalanced_marginal_only",
         "508152d8398ca6a7b85cf44b5bd64d742217191811a0337d3e4444ea524715af"),
        ("multimode", "fbaf8b166b741c1ac12bac4bb99a718dd6dde355f92871762fb7a3450b2dbf6e"),
    ], ids=["imbalanced", "imbalanced_marginal_only", "multimode"])
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
    # Keys once in train, refused with values they once took.
    ("train.activation", {"train": {"activation": "tanh"}}),
    ("train.alpha_schedule", {"train": {"alpha_schedule": "exp_ramp"}}),
    ("train.lambda_schedule", {"train": {"lambda_schedule": "constant"}}),
    ("train.ramp_length", {"train": {"ramp_length": 10}}),
    ("train.feature_tap", {"train": {"feature_tap": "middle"}}),
    # A config that names a clustering metric, once a train key, is refused.
    ("train.metric", {"train": {"metric": "euclidean"}}),
    # Both batch keys, or the equality check below fires first.
    ("train.batch_source", {"train": {"batch_source": 5000, "batch_target": 5000}}),
    ("train.batch_target", {"train": {"batch_target": 8}}),
    ("train.teacher_mode", {"train": {"teacher_mode": "ema"}}),
    ("train.alpha_max", {"train": {"alpha_max": -1.0}}),
    # The pair sums over the tiny config's 48 rows overflow; once such a
    # margin validated, and `run` logged an infinite l_c.
    ("train.margin", {"train": {"margin": 1e306}}),
    ("dataset.modes_per_class", {"scenario": "multimode", "dataset": {"modes_per_class": 1}}),
    ("output_dir", {"output_dir": 5}),
    # Squared distances of these coordinates overflow; once such a config
    # validated, and `run` failed in the first snapshot's k-means.
    ("dataset.source_means must be at most",
     {"dataset": {"source_means": [[1e200, 0.0], [2.0, 0.0]]}}),
    # A mean and a spread each within that bound whose samples pass it: no
    # one key is at fault, so the section is named.
    ("dataset: coordinates reach",
     {"dataset": {"source_means": [[4e153, 0.0], [2.0, 0.0]], "sigma": 2e153}}),
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


@pytest.mark.parametrize("tap", ["middle", ""], ids=["unknown", "empty"])
def test_feature_tap_message_names_the_two_taps(tmp_path, capsys, tap):
    path = write_config(tmp_path, probe_raw({"train": {"feature_tap": tap}}))
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert f"train.feature_tap must be one of penultimate, logits; got {tap!r}" in err


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

    def test_seeds_past_64_bits_run_and_rerun_byte_for_byte(self, tmp_path):
        # Config seeds take any width; each trains under derive_seed(seed, 2),
        # a 64-bit TrainConfig.seed, which is what the dropout plan hashes.
        raw = tiny_raw(seeds=[2**64 + 5, 10**30])
        raw["train"] = dict(raw["train"], teacher_mode="pi", dropout_rate=0.3)
        path = write_config(tmp_path, raw)
        outputs = []
        for name in ("a", "b"):
            assert main(["run", path, "--output-dir", str(tmp_path / name)]) == 0
            outputs.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
        assert f"metrics_{10**30}.csv" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_an_integer_decay_writes_the_bytes_of_a_float_one(self, tmp_path):
        # JSON 0 reaches the temporal teacher's update and bias correction
        # as a Python int.
        outputs = []
        for decay in (0, 0.0):
            raw = tiny_raw(seeds=[0, 1])
            raw["train"] = dict(raw["train"], decay=decay)
            out_dir = tmp_path / f"decay_{decay!r}"
            assert main(["run", write_config(tmp_path, raw), "--output-dir", str(out_dir)]) == 0
            outputs.append({p.name: p.read_bytes() for p in out_dir.iterdir()
                            if p.name.startswith(("metrics_", "features_"))})
        assert sorted(outputs[0]) == ["features_0.csv", "features_1.csv", "metrics_0.csv",
                                      "metrics_1.csv"]
        assert outputs[0] == outputs[1]

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
    columns = ("iteration", "target_acc", "source_acc", "cluster_acc", "jsd_proxy",
               "selection_rate", "l_y", "l_c", "l_a", "l_d")
    values = {field: 0.125 * (i + 1) for i, field in enumerate(columns)}
    values["iteration"] = 7
    path = tmp_path / "metrics.csv"
    cli.write_metrics_csv([RunMetrics(**values)], path)
    assert path.read_text().splitlines()[0] == ",".join(columns)
    with open(path, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row == {field: repr(value) for field, value in values.items()}


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


# A fresh process that runs `validate`, then `run` into argv[2], through
# main or through the `python -m` path, and prints what it holds as _hashlib.
_ENTRY_CODE = {
    "main": """\
import sys
from clusteralign.cli import main
assert main(['validate', sys.argv[1]]) == 0
assert main(['run', sys.argv[1], '--output-dir', sys.argv[2]]) == 0
print(sys.modules.get('_hashlib', 'absent'))
""",
    "runpy": """\
import runpy, sys
config, out = sys.argv[1:]
for argv in (['validate', config], ['run', config, '--output-dir', out]):
    sys.argv = ['clusteralign', *argv]
    try:
        runpy.run_module('clusteralign.cli', run_name='__main__')
    except SystemExit as exc:
        assert exc.code == 0, exc.code
print(sys.modules.get('_hashlib', 'absent'))
""",
}


@pytest.mark.parametrize("entry", _ENTRY_CODE)
def test_validate_and_run_never_load_openssl(tmp_path, entry):
    # OpenSSL's libcrypto costs every process about 3.7 MiB; main blocks
    # _hashlib, and the builtin sha256 must give the config hash that
    # OpenSSL's gives.
    if openssl_sha256 is None:
        pytest.skip("this Python has no OpenSSL")
    raw = tiny_raw(seeds=[0, 1])
    path = write_config(tmp_path, raw)
    done = subprocess.run([sys.executable, "-c", _ENTRY_CODE[entry], path, str(tmp_path / "out")],
                          capture_output=True, text=True, env=module_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "None"
    canonical = json.dumps(resolve_config(raw), sort_keys=True, separators=(",", ":"))
    digest = openssl_sha256(canonical.encode("utf-8")).hexdigest()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config_hash"] == digest


def test_library_import_loads_neither_hashlib_nor_numpy_random():
    # An eager np.random annotation or a top-level `import hashlib` would
    # load OpenSSL before main could block it.
    code = ("import sys\n"
            "import clusteralign\n"
            "import clusteralign.cli\n"
            "print([m for m in ('hashlib', 'numpy.random', '_hashlib') if m in sys.modules])\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=module_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_host_that_loaded_openssl_keeps_it(tmp_path):
    if openssl_sha256 is None:
        pytest.skip("this Python has no OpenSSL")
    path = write_config(tmp_path, tiny_raw())
    code = ("import hashlib, sys\n"
            "from clusteralign.cli import main\n"
            "assert main(['validate', sys.argv[1]]) == 0\n"
            "print(sys.modules['_hashlib'] is not None)\n"
            "print(hashlib.sha256(b'abc').hexdigest())\n")
    done = subprocess.run([sys.executable, "-c", code, path], capture_output=True, text=True,
                          env=module_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == [
        "True", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"]


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
    # The abort's one line, and none of numpy's overflow warnings before it.
    assert done.stderr.count("\n") == 1, done.stderr
    named = re.match(r"run failed: seed (\d+): .*at iteration \d+", done.stderr)
    assert named and int(named.group(1)) in seeds, done.stderr
    for seed in seeds:
        assert (out_dir / f"dataset_{seed}.csv").exists()
    assert not (out_dir / "summary.json").exists()


@pytest.mark.parametrize("offset", [1e20, 4e153], ids=["inertia-rises", "kmeans-pp-overflows"])
def test_failing_kmeans_exits_1_naming_seed_and_iteration(tmp_path, offset):
    # On features near 1e20 the first Lloyd update's rounded mean of a
    # cluster lands far from the points it averages, so the inertia rises
    # (an explicit-difference assignment fails the same way); near the
    # dataset bound the k-means++ weights overflow their sum. A
    # subprocess, so that stderr is the whole of what the run prints.
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


# Counts past int64, each with its id. Each once exited 2 naming only its
# section, with numpy's "Maximum allowed dimension exceeded".
PAST_INT64 = [
    (f"{key}-{label}", scenario, section, key, [value] if key == "hidden_layers" else value)
    for scenario, section, key in (("imbalanced_gaussians", "dataset", "n_major"),
                                   ("imbalanced_gaussians", "dataset", "n_minor"),
                                   ("multimode", "dataset", "modes_per_class"),
                                   ("multimode", "dataset", "n_per_mode"),
                                   ("imbalanced_gaussians", "train", "critic_hidden"),
                                   ("imbalanced_gaussians", "train", "hidden_layers"))
    for label, value in (("10**20", 10**20), ("2**63", 2**63))
]


# Each value once passed `validate` and then ended `run` with a traceback
# (the integers past float64) or part-way through (an lr_base whose
# annealed rate underflows to 0); a mean past the coordinate bound exited
# 2 naming only its section.
@pytest.mark.parametrize("field, over", [
    ("train.alpha_max: must be a finite number", {"train": {"alpha_max": 10**400}}),
    ("train.lambda_max: must be a finite number", {"train": {"lambda_max": 10**400}}),
    ("train.lr_base: must be a finite number", {"train": {"lr_base": 10**400}}),
    ("dataset.rotation_deg: must be a finite number",
     {"scenario": "multimode", "dataset": {"rotation_deg": 10**400}}),
    ("train.lr_base must be large enough", {"train": {"lr_base": 5e-324}}),
    ("dataset.source_means must be at most",
     {"dataset": {"source_means": [[1e200, 0.0], [2.0, 0.0]]}}),
    ("dataset.target_means must be at most",
     {"dataset": {"target_means": [[-2.0, 2.0], [2.0, -1e200]]}}),
] + [(f"{section}.{key}: must be", {"scenario": scenario, section: {key: value}})
      for _, scenario, section, key, value in PAST_INT64],
    ids=["alpha_max-past-float64", "lambda_max-past-float64", "lr_base-past-float64",
         "rotation_deg-past-float64", "lr_base-underflowing",
         "source_means-past-the-coordinate-bound", "target_means-past-the-coordinate-bound"]
    + [case[0] for case in PAST_INT64])
def test_hostile_number_exits_2_naming_its_field(tmp_path, capsys, field, over):
    path = write_config(tmp_path, probe_raw(over))
    assert main(["validate", path]) == 2
    assert capsys.readouterr().err.startswith(f"invalid config: {field}")


def test_an_integer_rotation_past_int64_validates(tmp_path, capsys):
    path = write_config(tmp_path, {"scenario": "multimode", "dataset": {"rotation_deg": 10**20}})
    assert main(["validate", path]) == 0
    assert json.loads(capsys.readouterr().out)["dataset"]["rotation_deg"] == 10**20


@pytest.mark.parametrize("text", ['{"scenario": "multimode", "seeds": [1' + "0" * 5000 + "]}",
                                  b"\xff\xfe{}", None],
                         ids=["integer-past-the-digit-limit", "not-utf-8", "a-directory"])
def test_an_unreadable_config_exits_2_naming_its_path(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    if text is None:
        path.mkdir()
    elif isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid config: {path}: ") and err.count("\n") == 1, err


def test_a_run_out_of_memory_exits_1_naming_its_seeds(tmp_path):
    # The student state fits, so `validate` passes; the first snapshot's
    # pass over the 1100 source rows asks for an (1100, 10**6) array. Under
    # a 3 GiB address-space limit, set in the child only, the allocation
    # fails at once.
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    path = write_config(tmp_path, {"scenario": "imbalanced_gaussians", "seeds": [0, 1, 2],
                                   "train": {"hidden_layers": [10**6]}})
    calls = [subprocess.run([sys.executable, "-m", "clusteralign.cli", *args], capture_output=True,
                            text=True, env=module_env(), preexec_fn=limit)
             for args in (["validate", path], ["run", path, "--output-dir", str(tmp_path / "out")])]
    assert calls[0].returncode == 0, calls[0].stderr
    assert calls[1].returncode == 1
    assert calls[1].stderr.startswith("run failed: seeds 0, 1, 2: Unable to allocate "), \
        calls[1].stderr
    assert calls[1].stderr.count("\n") == 1 and "Traceback" not in calls[1].stderr
