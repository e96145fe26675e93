"""Compare this tree's outputs with those of a git revision, byte for byte.

    python tools/compare_outputs.py <revision>
    python tools/compare_outputs.py --digests

The revision is exported with `git archive` into a temporary directory.
Each configuration below (400 iterations, pretraining 100, a snapshot every
100) is then run with `python -m clusteralign.cli run` in a fresh process on
both trees, with OPENBLAS_NUM_THREADS=1 and PYTHONDONTWRITEBYTECODE=1, and
every output file and the stdout are compared. Configuration (k) sets an
integer momentum of 0 (plain SGD); (l) scales the schedule weights by an
alpha_max and a lambda_max of 0.5; (m) sets an integer decay of 0 on a
2-seed temporal ensemble; (i) takes batches of 48, so that the
multimode target's 12 batches per epoch cycle the source's 8.
Configurations (a), (f), (h) and (j) run once more at
OPENBLAS_NUM_THREADS=2, numpy's default on a 2-core machine, and print
their own lines: three seed groups and a lone seed, each through the
clustering kernel's matmul. A differing CSV whose header matches on both
sides is named with its differing columns, as in `metrics_0.csv[l_c]`,
and a differing JSON file with the dotted keys that differ or that only
one side holds, as in `summary.json[config_hash]`. Each run's line also
gives the peak resident set of its process on this tree and on the
revision (ru_maxrss from os.wait4), e.g. `peak 39.71/41.10 MiB`.
`validate` is compared the same way on each
shipped `configs/*.json`; a printout that differs at the same exit status
gets its differing keys, as in `differs [train.ramp_length]`. One line is
printed per run; the exit status is 1 when anything differs.

With --digests, the script prints the digest table of this Python's
build (its numpy version and its BLAS name and version) as JSON: the
sha256 of every output file and the stdout of configurations (a), (h)
and (i) at one BLAS thread and (a) at two, each cut to 120 iterations,
pretraining 30 and a snapshot every 40. tests/test_output_digests.py
runs the same calls and compares them with tests/output_digests.json,
which holds one such entry per build. The script uses the standard
library only.
"""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHORT = {"total_iters": 400, "pretrain_iters": 100}


def _config(scenario, seeds=(0,), ablation=(), **train):
    return {"scenario": scenario, "seeds": list(seeds), "eval_every": 100,
            "ablation": list(ablation), "train": dict(SHORT, **train)}


CONFIGS = {
    "a": _config("imbalanced_gaussians", seeds=(0, 3)),
    "b": _config("multimode", ablation=["no_La"], teacher_mode="pi", dropout_rate=0.3,
                 threshold=0.7),
    "c": _config("multimode", ablation=["no_teacher", "no_Lc"]),
    "d": _config("imbalanced_gaussians", ablation=["marginal_only", "no_teacher"],
                 teacher_mode="pi", dropout_rate=0.2),
    "e": _config("imbalanced_gaussians", ablation=["no_rRevGrad_threshold"],
                 teacher_mode="pi", dropout_rate=0.0),
    "f": _config("multimode", hidden_layers=[12]),
    "g": _config("imbalanced_gaussians", hidden_layers=[], feature_tap="penultimate",
                 dropout_rate=0.0),
    # Three seeds trained as one group, each with its own dropout masks on
    # all three student passes.
    "h": _config("multimode", seeds=(0, 1, 2), teacher_mode="pi", dropout_rate=0.3),
    # A batch size off the default: the target's 600 rows give 12 batches
    # per epoch, and the source's 400 rows cycle through their 8.
    "i": _config("multimode", seeds=(0, 1), batch_source=48, batch_target=48,
                 dropout_rate=0.2),
    # Each slice's dropout stream split over two hidden layers of different
    # widths, three seeds as one group.
    "j": _config("imbalanced_gaussians", seeds=(0, 1, 2), hidden_layers=[12, 7],
                 dropout_rate=0.3),
    # Plain SGD: JSON 0 stays a Python int in the momentum update.
    "k": _config("multimode", momentum=0),
    # A 2-seed group on a ramp scaled below 1.
    "l": _config("imbalanced_gaussians", seeds=(0, 1), alpha_max=0.5, lambda_max=0.5),
    # JSON 0 stays a Python int in the temporal teacher's update and bias
    # correction.
    "m": _config("imbalanced_gaussians", seeds=(0, 1), decay=0),
}
# The configurations also run at 2 BLAS threads.
TWO_THREADS = ("a", "f", "h", "j")
# The (configuration, BLAS threads) runs of the digest table.
DIGEST_RUNS = (("a", 1), ("h", 1), ("i", 1), ("a", 2))


def export(revision, dest):
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", revision],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(dest, **safe)


def cli(tree, args, cwd, threads=1):
    """The exit status, the stdout and the peak resident set in MiB of one
    CLI call on a tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"),
               OPENBLAS_NUM_THREADS=str(threads), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen([sys.executable, "-m", "clusteralign.cli", *args], cwd=cwd,
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    with proc.stdout:
        stdout = proc.stdout.read()
    # os.wait4 reaps the child and returns its own resource usage;
    # ru_maxrss is in KiB on Linux.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, usage.ru_maxrss / 1024


def outputs(tree, raw, work, threads):
    """The exit status, every byte a run of raw on tree produces, keyed by
    file name, and the run's peak resident set in MiB."""
    work.mkdir()
    path = work / "config.json"
    path.write_text(json.dumps(raw))
    status, stdout, peak = cli(tree, ["run", str(path), "--output-dir", "out"], work, threads)
    out = work / "out"
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return status, dict(files, stdout=stdout), peak


def build():
    """The numpy version and the BLAS name and version of this Python, as in
    "numpy 2.4.6, scipy-openblas 0.3.31.188.0"."""
    code = ("import numpy as np\n"
            "blas = np.show_config(mode='dicts')['Build Dependencies']['blas']\n"
            "print(f\"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}\")")
    return subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True).stdout.strip()


def digests(tree, work):
    """The sha256 of every output file and the stdout of each of DIGEST_RUNS
    on tree, cut to 120 iterations, pretraining 30 and a snapshot every
    40, keyed by run ("a_1": configuration (a) at one BLAS thread) and file
    name."""
    table = {}
    for name, threads in DIGEST_RUNS:
        raw = dict(CONFIGS[name], eval_every=40,
                   train=dict(CONFIGS[name]["train"], total_iters=120, pretrain_iters=30))
        label = f"{name}_{threads}"
        status, files, _ = outputs(tree, raw, work / label, threads)
        if status:
            raise RuntimeError(f"run {label} exited with status {status}")
        table[label] = {file: hashlib.sha256(data).hexdigest() for file, data in files.items()}
    return table


def json_keys(ours, theirs):
    """The sorted dotted keys of two JSON documents whose values differ or
    that only one holds; None when either side is not JSON."""
    def leaves(value, prefix=""):
        if isinstance(value, dict) and value:
            return {key: leaf for name, item in value.items()
                    for key, leaf in leaves(item, f"{prefix}{name}.").items()}
        # Compared as JSON text, so that 1 and 1.0 differ and NaN equals NaN.
        return {prefix[:-1]: json.dumps(value, sort_keys=True)}

    try:
        ours, theirs = leaves(json.loads(ours)), leaves(json.loads(theirs))
    except ValueError:
        return None
    return sorted(key for key in ours.keys() | theirs.keys() if ours.get(key) != theirs.get(key))


def describe(name, ours, theirs):
    """The name of one differing output; a CSV with the same header and row
    count on both sides gets its differing columns appended, and a JSON
    file its differing keys (json_keys)."""
    if ours is None or theirs is None:
        return name
    if name.endswith(".json"):
        keys = json_keys(ours, theirs)
        return f"{name}[{','.join(keys)}]" if keys else name
    if not name.endswith(".csv"):
        return name
    ours, theirs = (list(csv.reader(io.StringIO(data.decode()))) for data in (ours, theirs))
    if not ours or ours[0] != theirs[0] or len(ours) != len(theirs):
        return name
    columns = [column for i, column in enumerate(ours[0])
               if any(a[i:i + 1] != b[i:i + 1] for a, b in zip(ours, theirs))]
    return f"{name}[{','.join(columns)}]" if columns else name


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if argv[0] == "--digests":
            print(json.dumps({build(): digests(ROOT, tmp)}, indent=2, sort_keys=True))
            return 0
        parent = tmp / "parent"
        export(argv[0], parent)
        runs = [(name, 1) for name in CONFIGS] + [(name, 2) for name in TWO_THREADS]
        for name, threads in runs:
            raw, label = CONFIGS[name], f"{name}_{threads}"
            status, ours, peak = outputs(ROOT, raw, tmp / f"ours_{label}", threads)
            parent_status, theirs, parent_peak = outputs(parent, raw, tmp / f"theirs_{label}",
                                                         threads)
            diff = ["exit status"] if status != parent_status else []
            diff += [describe(file, ours.get(file), theirs.get(file))
                     for file in sorted(ours.keys() | theirs.keys())
                     if ours.get(file) != theirs.get(file)]
            failed |= bool(diff)
            verdict = f"differs: {', '.join(diff)}" if diff else "identical"
            at = "" if threads == 1 else f" at {threads} BLAS threads"
            print(f"({name}){at} exit {status}, {len(ours) - 1} files and stdout, "
                  f"peak {peak:.2f}/{parent_peak:.2f} MiB, {verdict}", flush=True)
        for path in sorted((ROOT / "configs").glob("*.json")):
            ours = cli(ROOT, ["validate", str(path)], tmp)[:2]
            theirs = cli(parent, ["validate", str(path)], tmp)[:2]
            failed |= ours != theirs
            verdict = "identical"
            if ours != theirs:
                keys = json_keys(ours[1], theirs[1]) if ours[0] == theirs[0] else None
                verdict = f"differs [{', '.join(keys)}]" if keys else "differs"
            print(f"validate {path.name}: {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
