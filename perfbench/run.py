#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of `clusteralign run`.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cat_imbalanced --seed 0 --seconds 50 --trace 0

Every measured call runs `clusteralign.cli.main` in a fresh interpreter
(`perfbench/child.py`) on a shipped preset, shortened from 5000 to 2000
iterations so that a budget holds several calls. The preset's 1:10 ratio
of pretraining to total iterations and its evaluation cadence are kept.
The workload seed picks the program's seeds, which reach it through
`--seed-override`. Each call trains one seed set (three seeds for
cat_imbalanced, one for cat_multimode).

--trace 0  Untraced `run` calls, one after another, until the time
           budget is spent (at least two), each preceded by three set-up
           samples so that both metrics sample the whole window. Every
           call trains a new seed set. Reports the end-to-end metrics.
--trace 1  Untraced `run` calls, then one traced call whose layer
           functions are wrapped by `perfbench/tracer.py`, then kernel
           micro-timings at the shapes the traced call used. The first
           two untraced calls and the traced call train the same seed
           set; later untraced calls train new ones. Reports the
           per-layer metrics.

Every `run` call must pass the correctness gate (exit 0, every CSV with
its documented header, `summary.json` carrying the config hash and a
final target accuracy in [0, 1] for every seed), and every call of one
seed set, traced or not, must write byte-identical metrics and features
CSVs. The median final target accuracy over all seeds of the invocation
must lie in the acceptance band. A single seed may end below the band:
at 2000 iterations CAT collapses on about one imbalanced seed in ten, and
which seeds collapse depends on the host's floating-point rounding. Such
seeds are listed, not failed.

The benchmark runs one child process at a time, so runs never overlap.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A fuller report, with the machine facts,
goes to perfbench/out/<workload>/report.json.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import Spans, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"

TOTAL_ITERS = 2000
# Program seed i of seed set j under workload seed s is
# s * SEED_STRIDE + j * seeds_per_call + i; calls never reach this many seeds.
SEED_STRIDE = 1000
SETUPS_PER_RUN = 3
MIN_RUNS = 2
HARD_LIMIT_S = 150.0
# A traced call runs slower than an untraced one; keep this much of the
# budget per untraced-call duration free for it.
TRACED_COST = 1.6

METRICS_HEADER = ("iteration,target_acc,source_acc,cluster_acc,jsd_proxy,"
                  "selection_rate,l_y,l_c,l_a,l_d")


@dataclass(frozen=True)
class Workload:
    config: str
    seeds_per_call: int
    min_target_acc: float


WORKLOADS = {
    # Headline scenario, three seeds per call: the only workload on which a
    # parallel seed sweep can show.
    "cat_imbalanced": Workload("configs/imbalanced.json", 3, 0.95),
    # 16-D penultimate features make the pairwise kernel the largest layer.
    "cat_multimode": Workload("configs/multimode.json", 1, 0.95),
}


def nproc():
    return len(os.sched_getaffinity(0))


# -- child processes ----------------------------------------------------------

def _descendants(pid):
    found, todo = [], [pid]
    while todo:
        parent = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{parent}/task/{task}/children") as fh:
                    kids = [int(k) for k in fh.read().split()]
            except OSError:
                continue
            found += kids
            todo += kids
    return found


def _peak_rss_kb(pid):
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class DescendantPeaks(threading.Thread):
    """Polls the peak RSS of every process the child starts."""

    def __init__(self, pid):
        super().__init__(daemon=True)
        self.pid = pid
        self.peaks = {}
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(0.1):
            for pid in _descendants(self.pid):
                self.peaks[pid] = max(self.peaks.get(pid, 0), _peak_rss_kb(pid))

    def stop(self):
        self.done.set()
        self.join()
        return sum(self.peaks.values())


@dataclass
class ChildRun:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_kb: int
    result: dict


def run_child(job, log_path, deadline):
    """Run one job in a fresh interpreter and wait for it to end."""
    job = dict(job, src=str(SRC), result=str(log_path.with_suffix(".json")))
    with open(log_path, "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), json.dumps(job)],
                                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        monitor = DescendantPeaks(proc.pid)
        monitor.start()
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            descendants_kb = monitor.stop()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        result = json.loads(Path(job["result"]).read_text())
    except (OSError, ValueError):
        result = {}
    own_kb = result.get("maxrss_kb", usage.ru_maxrss)
    return ChildRun(proc.returncode, end - start, usage.ru_utime + usage.ru_stime,
                    own_kb + descendants_kb, result)


# -- correctness gate ---------------------------------------------------------

def _header_ok(kind, header):
    cols = header.split(",")
    if kind == "metrics":
        return header == METRICS_HEADER
    if kind == "features":
        fixed = ["domain", "true_class", "pseudo_class", "confidence"]
        return cols[:4] == fixed and len(cols) > 4 and cols[4:] == [
            f"f{i}" for i in range(len(cols) - 4)]
    return cols[:2] == ["domain", "class"] and len(cols) > 2 and cols[2:] == [
        f"x{i}" for i in range(len(cols) - 2)]


@dataclass
class Outputs:
    problems: list
    digests: dict
    target_acc: dict
    cluster_acc: dict
    export_bytes: int = 0


def check_outputs(out_dir, seeds, expected_hash):
    """Apply the correctness gate to one run's output directory."""
    out = Outputs([], {}, {}, {})
    for seed in seeds:
        for kind in ("metrics", "features", "dataset"):
            path = out_dir / f"{kind}_{seed}.csv"
            try:
                data = path.read_bytes()
            except OSError:
                out.problems.append(f"{path.name} missing")
                continue
            out.export_bytes += len(data)
            lines = data.decode("utf-8").splitlines()
            if len(lines) < 2 or not _header_ok(kind, lines[0]):
                out.problems.append(f"{path.name}: bad header or no rows")
                continue
            if kind != "dataset":
                out.digests[path.name] = hashlib.sha256(data).hexdigest()
            if kind == "metrics":
                out.cluster_acc[seed] = float(lines[-1].split(",")[3])
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
        per_seed = summary["final_target_accuracy"]["per_seed"]
        out.target_acc = {seed: float(per_seed[str(seed)]) for seed in seeds}
    except (OSError, ValueError, KeyError, TypeError):
        out.problems.append("summary.json missing or malformed")
        return out
    if summary.get("config_hash") != expected_hash:
        out.problems.append("summary.json config_hash does not match the resolved config")
    for seed in seeds:
        for name, acc in (("target", out.target_acc), ("cluster", out.cluster_acc)):
            if seed in acc and not 0.0 <= acc[seed] <= 1.0:
                out.problems.append(f"seed {seed}: final {name} accuracy {acc[seed]} "
                                    "outside [0, 1]")
    return out


# -- statistics and machine facts ---------------------------------------------

def describe(values):
    """Median, and the highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    entry = {"median": statistics.median(ordered), "n": n, "tail": None, "values": values}
    if n > 10:
        rank = n - 10
        entry["tail"] = {"percentile": 100 * rank // n, "value": ordered[rank - 1]}
    return entry


def _blas_threads():
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def machine_facts():
    from clusteralign import kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": kernels.BACKEND,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "load": "one benchmark process starting one child at a time; runs are serial "
                "and never overlap",
    }


# -- the benchmark --------------------------------------------------------------

class Bench:
    def __init__(self, name, workload, seed, seconds):
        from clusteralign.cli import resolve_config

        self.name = name
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.monotonic()
        self.deadline = self.start + HARD_LIMIT_S
        self.work = ROOT / "perfbench" / "out" / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

        raw = json.loads((ROOT / workload.config).read_text())
        raw.setdefault("train", {}).update(total_iters=TOTAL_ITERS,
                                          pretrain_iters=TOTAL_ITERS // 10)
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps(raw, indent=2))
        self.resolved = resolve_config(raw)

        self.attempted = 0
        self.failed = set()
        self.problems = []
        self.references = {}
        self.runs = []
        self.setups = []
        # Final accuracies of every distinct program seed trained.
        self.target_acc = {}
        self.cluster_acc = {}

    def seed_set(self, index):
        per_call = self.workload.seeds_per_call
        base = self.seed * SEED_STRIDE + index * per_call
        assert (index + 1) * per_call <= SEED_STRIDE
        return [base + i for i in range(per_call)]

    def expected_hash(self, seeds):
        from clusteralign.cli import config_hash

        return config_hash(dict(self.resolved, seeds=seeds))

    def record(self, label, problems, attempt=True):
        self.attempted += attempt
        if problems:
            self.failed.add(label)
            self.problems += [f"{label}: {p}" for p in problems]
        return not problems

    def setup_sample(self):
        label = f"setup_{self.attempted}"
        began = time.monotonic()
        child = run_child({"mode": "setup", "config": str(self.config), "seeds": self.seed_set(0)},
                          self.work / f"{label}.log", self.deadline)
        ok = child.exit_code == 0 and "ready" in child.result
        if self.record(label, [] if ok else [f"exit {child.exit_code}, see {label}.log"]):
            self.setups.append(child.result["ready"] - began)

    def run_sample(self, label, set_index, traced=False):
        seeds = self.seed_set(set_index)
        out_dir = self.work / label
        job = {"mode": "trace" if traced else "run", "config": str(self.config),
               "seeds": seeds, "output_dir": str(out_dir),
               "spans": str(self.work / "spans.npz"), "shapes": str(self.work / "shapes.json")}
        child = run_child(job, self.work / f"{label}.log", self.deadline)
        if child.exit_code != 0:
            self.record(label, [f"exit {child.exit_code}, see {label}.log"])
            return child, None
        outputs = check_outputs(out_dir, seeds, self.expected_hash(seeds))
        reference = self.references.setdefault(set_index, outputs.digests)
        if outputs.digests != reference:
            outputs.problems.append("metrics/features CSVs differ from the first run "
                                    "of the same seeds")
        self.target_acc.update(outputs.target_acc)
        self.cluster_acc.update(outputs.cluster_acc)
        self.record(label, outputs.problems)
        shutil.rmtree(out_dir, ignore_errors=True)
        return child, outputs

    def untraced_runs(self, reserve, setups_per_run=0, repeat_first=False):
        """At least MIN_RUNS untraced calls, then more while half of the next
        one, plus `reserve` call durations, fits in the budget. Each call is
        preceded by `setups_per_run` set-up samples and trains a new seed
        set, except that with `repeat_first` the second call repeats the
        first one's."""
        while True:
            for _ in range(setups_per_run):
                self.setup_sample()
            index = len(self.runs)
            set_index = max(index - 1, 0) if repeat_first else index
            child, outputs = self.run_sample(f"run_{index}", set_index)
            self.runs.append((child, outputs))
            now = time.monotonic()
            if outputs is None or now + child.wall_s * (1 + reserve) > self.deadline:
                return
            if (len(self.runs) >= MIN_RUNS
                    and now + child.wall_s * (0.5 + reserve) > self.start + self.seconds):
                return

    def good_runs(self):
        return [(c, o) for c, o in self.runs if o is not None]

    def accuracy_gate(self):
        """The median final target accuracy over every distinct seed must
        lie in the acceptance band. Returns the seeds below the band."""
        accs = self.target_acc
        if not accs:
            return []
        median = statistics.median(accs.values())
        floor = self.workload.min_target_acc
        self.record("accuracy", [] if median >= floor else [
            f"median final target accuracy {median} over seeds {sorted(accs)} < {floor}"],
            attempt=False)
        return sorted(seed for seed, acc in accs.items() if acc < floor)


def end_to_end(bench):
    """Samples of every end-to-end metric: {name: (values, unit)}."""
    bench.untraced_runs(reserve=0.0, setups_per_run=SETUPS_PER_RUN)
    good = bench.good_runs()
    if not bench.target_acc or not bench.cluster_acc or not bench.setups:
        return None, {}
    return {
        "setup_s": (bench.setups, "s"),
        "run_s": ([c.wall_s for c, _ in good], "s"),
        "peak_rss_mb": ([c.peak_rss_kb / 1024 for c, _ in good], "MiB"),
        "target_acc": (list(bench.target_acc.values()), "ratio"),
        "cluster_acc": (list(bench.cluster_acc.values()), "ratio"),
    }, {}


def per_layer(bench):
    """Samples of every per-layer metric, and the kernel timings by shape."""
    bench.untraced_runs(reserve=TRACED_COST, repeat_first=True)
    good = bench.good_runs()
    if not good:
        return None, {}
    child, outputs = bench.run_sample("traced", 0, traced=True)
    if outputs is None:
        return None, {}
    spans = Spans.load(bench.work / "spans.npz")
    traced_wall = child.result["wall_s"]
    self_sum = float(spans.self_time.sum())
    problems = []
    if spans.self_time.min() < -1e-6:
        problems.append("a child span lies outside its parent")
    if abs(self_sum - traced_wall) > 0.01 * traced_wall:
        problems.append(f"span self times sum to {self_sum:.4f} s, "
                        f"traced wall time is {traced_wall:.4f} s")
    bench.record("traced", problems, attempt=False)

    metrics = {name: ([value], unit) for name, (value, unit) in layer_metrics(spans).items()}
    untraced = statistics.median(c.wall_s for c, _ in good)
    metrics["trace.overhead"] = ([child.wall_s / untraced - 1.0], "ratio")
    metrics["cli.export_bytes"] = ([outputs.export_bytes], "bytes")
    metrics["cli.core_utilization"] = (
        [c.cpu_s / (c.wall_s * nproc()) for c, _ in good], "ratio")

    shapes = json.loads((bench.work / "shapes.json").read_text())
    picks, rows = kernel_micro(bench, shapes)
    if picks is None:
        return None, {}
    for key, row in picks.items():
        metrics[f"kernels.micro.{key}.pairs_per_us"] = ([row["pairs_per_us"]], "1/us")
    return metrics, {"kernel_micro": rows}


def kernel_micro(bench, shapes):
    """Time both kernels at every shape of the traced call.

    Reported by name: the most frequent pairwise shape (the training
    batch), the largest pairwise shape (an evaluation pass) and the
    largest k-means assignment.
    """
    by_calls = sorted(shapes, key=lambda s: -s[-1])
    pairwise = [s[:-1] for s in by_calls if s[0] == "pairwise_margin_loss"]
    assign = [s[:-1] for s in by_calls if s[0] == "kmeans_assign"]
    if not bench.record("traced", [] if pairwise and assign else ["a kernel was never called"],
                        attempt=False):
        return None, []
    picks = {
        "pairwise_margin_loss.batch": pairwise[0],
        "pairwise_margin_loss.full": max(pairwise, key=lambda s: s[1]),
        "kmeans_assign.full": max(assign, key=lambda s: s[1] * s[3]),
    }
    child = run_child({"mode": "micro", "seed": bench.seed_set(0)[0],
                       "shapes": pairwise + assign},
                      bench.work / "micro.log", bench.deadline)
    if not bench.record("micro", [] if child.exit_code == 0 else [f"exit {child.exit_code}"]):
        return None, []
    rows = child.result["rows"]
    by_shape = {(r["kernel"], *r["shape"]): r for r in rows}
    return {key: by_shape[tuple(shape)] for key, shape in picks.items()}, rows


def _terminate(signum, frame):
    # Unwinds through run_child, which then kills and reaps the running child.
    sys.exit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    workload = WORKLOADS[args.workload]
    if not (SRC / "clusteralign" / "cli.py").is_file() or not (ROOT / workload.config).is_file():
        print(f"no clusteralign checkout at {ROOT}: need src/clusteralign and {workload.config}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    bench = Bench(args.workload, workload, args.seed, args.seconds)
    metrics, extras = per_layer(bench) if args.trace else end_to_end(bench)
    below_band = bench.accuracy_gate()
    if metrics is None:
        print("benchmark aborted:", *bench.problems, sep="\n  ", file=sys.stderr)
        return 1

    report = {
        "workload": args.workload,
        "seeds": sorted(bench.target_acc),
        "seeds_below_band": below_band,
        "total_iters": TOTAL_ITERS,
        "trace": args.trace,
        "machine": machine_facts(),
        "attempted": bench.attempted,
        "problems": bench.problems,
        "metrics": {name: dict(describe(values), unit=unit)
                    for name, (values, unit) in metrics.items()},
        **extras,
    }
    (bench.work / "report.json").write_text(json.dumps(report, indent=2))

    print(f"workload {args.workload}: seeds {report['seeds']}, {TOTAL_ITERS} iterations "
          f"each, {len(bench.runs)} untraced run calls, "
          f"{time.monotonic() - bench.start:.1f} s")
    print("machine:", json.dumps(report["machine"]))
    for name, entry in report["metrics"].items():
        line = f"  {name:<54} {entry['median']:.6g} {entry['unit']}"
        if entry["n"] > 1:
            tail = entry["tail"]
            line += (f" median; p{tail['percentile']} {tail['value']:.6g}" if tail else
                     " median; no percentile has 10 samples above it") + f"; n={entry['n']}"
        print(line)
    for row in report.get("kernel_micro", ()):
        print(f"  micro {row['kernel']} {'x'.join(map(str, row['shape']))}: "
              f"{row['pairs_per_us']:.4g} pairs/us")
    for seed in below_band:
        print(f"  NOTE seed {seed}: final target accuracy {bench.target_acc[seed]:.4g} is "
              f"below {workload.min_target_acc}; the gate is on the median over all seeds")
    for problem in bench.problems:
        print("  FAILED", problem)

    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": len(bench.failed),
        "metrics": {name: {"value": entry["median"], "unit": entry["unit"]}
                    for name, entry in report["metrics"].items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
