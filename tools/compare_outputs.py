"""Compare this tree's outputs with those of a git revision, byte for byte.

    python tools/compare_outputs.py <revision>

The revision is exported with `git archive` into a temporary directory.
Each configuration below (400 iterations, pretraining 100, a snapshot every
100) is then run with `python -m clusteralign.cli run` in a fresh process on
both trees, with OPENBLAS_NUM_THREADS=1 and PYTHONDONTWRITEBYTECODE=1, and
every output file and the stdout are compared. Configuration (k) sets an
integer momentum of 0 (plain SGD); (l) takes the constant alpha schedule;
(i) takes batches of 48, so that the multimode target's 12 batches per
epoch cycle the source's 8. Configurations (a), (f), (h) and (j) run once
more at OPENBLAS_NUM_THREADS=2, numpy's default on a 2-core machine, and
print their own lines: three seed groups and a lone seed, each through
the clustering kernel's matmul. A differing CSV whose header matches on
both sides is named with its differing columns, as in
`metrics_0.csv[l_c]`. Each run's line also gives the peak resident
set of its process on this tree and on the revision (ru_maxrss from
os.wait4), e.g. `peak 39.71/41.10 MiB`, and its minor page faults from
the same call (ru_minflt), e.g. `faults 6.4k/6.4k`: a change that lets
the heap trim and regrow between steps shows first in that count.
`validate` is compared the same way on each shipped `configs/*.json`.
One line is printed per run; the exit status is 1 when anything differs.
The script uses the standard library only and is not part of the test
suite.
"""

import csv
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
    "f": _config("multimode", activation="tanh", hidden_layers=[12],
                 alpha_schedule="exp_ramp", lambda_schedule="constant"),
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
    # The constant alpha schedule on a 2-seed group.
    "l": _config("imbalanced_gaussians", seeds=(0, 1), alpha_schedule="constant"),
}
# The configurations also run at 2 BLAS threads.
TWO_THREADS = ("a", "f", "h", "j")


def export(revision, dest):
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", revision],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(dest, **safe)


def cli(tree, args, cwd, threads=1):
    """The exit status, the stdout, the peak resident set in MiB and the
    minor page faults of one CLI call on a tree."""
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
    return proc.returncode, stdout, usage.ru_maxrss / 1024, usage.ru_minflt


def outputs(tree, raw, work, threads):
    """The exit status, every byte a run of raw on tree produces, keyed by
    file name, and the run's peak resident set in MiB and minor faults."""
    work.mkdir()
    path = work / "config.json"
    path.write_text(json.dumps(raw))
    status, stdout, peak, faults = cli(tree, ["run", str(path), "--output-dir", "out"], work,
                                       threads)
    out = work / "out"
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return status, dict(files, stdout=stdout), peak, faults


def describe(name, ours, theirs):
    """The name of one differing output; a CSV with the same header and row
    count on both sides gets its differing columns appended."""
    if not name.endswith(".csv") or ours is None or theirs is None:
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
        parent = tmp / "parent"
        export(argv[0], parent)
        runs = [(name, 1) for name in CONFIGS] + [(name, 2) for name in TWO_THREADS]
        for name, threads in runs:
            raw, label = CONFIGS[name], f"{name}_{threads}"
            status, ours, peak, faults = outputs(ROOT, raw, tmp / f"ours_{label}", threads)
            parent_status, theirs, parent_peak, parent_faults = outputs(
                parent, raw, tmp / f"theirs_{label}", threads)
            diff = ["exit status"] if status != parent_status else []
            diff += [describe(file, ours.get(file), theirs.get(file))
                     for file in sorted(ours.keys() | theirs.keys())
                     if ours.get(file) != theirs.get(file)]
            failed |= bool(diff)
            verdict = f"differs: {', '.join(diff)}" if diff else "identical"
            at = "" if threads == 1 else f" at {threads} BLAS threads"
            print(f"({name}){at} exit {status}, {len(ours) - 1} files and stdout, "
                  f"peak {peak:.2f}/{parent_peak:.2f} MiB, "
                  f"faults {faults / 1000:.1f}k/{parent_faults / 1000:.1f}k, {verdict}", flush=True)
        for path in sorted((ROOT / "configs").glob("*.json")):
            ours = cli(ROOT, ["validate", str(path)], tmp)[:2]
            theirs = cli(parent, ["validate", str(path)], tmp)[:2]
            failed |= ours != theirs
            print(f"validate {path.name}: {'differs' if ours != theirs else 'identical'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
