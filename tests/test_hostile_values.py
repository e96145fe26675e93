"""A schema-driven sweep of hostile config values through the CLI.

For each synthetic scenario, every `dataset` and `train` key that config
resolution gives a default is set, one at a time, to each hostile value of
its default's type (HOSTILE), on a short base config (BASE, TRAIN). A key
added to a loader or to TrainConfig is swept without an edit here.

- `validate` must exit 0, or exit 2 with a message that starts with
  `dataset.<key>` or `train.<key>`. The one exception is the form README
  gives a size whose arrays cannot be allocated: the section alone, then
  numpy's allocation message.
- A bounded subset of the accepted values is also run for a dozen
  iterations: all but the ordinary numbers 1, 2 and 0.5 (ORDINARY) and a
  `total_iters` that would make the run long. The run must exit 0, or
  exit 1 with a `run failed:` line that names the seed.
- Nothing may print a traceback or raise out of `main`.

The sweep runs in one child process under an address-space limit
(RLIMIT_AS, set in the child only), so that a size that only fits in
virtual memory cannot exhaust the machine; the child calls `main`
in-process and prints one JSON line per case.

    python tests/test_hostile_values.py <work dir>

runs the child's side alone.
"""

import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

from helpers import module_env

# The address-space limit of the sweep's child: far above what a case of
# the small base configs needs, and far below the machine.
LIMIT = 512 << 20
HOSTILE = {
    "number": [0, -1, 1, 2, 0.5, 1e-300, 5e-324, 1e300, 10**20, 2**63, 0.999999999, 10**400],
    "list": [[], [0], [1], [10**7], [1] * 12],
    "string": ["", "x"],
    "bool": [True, False],
}
# Accepted, but not run: a run with one of these is a run of a plain config.
ORDINARY = (1, 2, 0.5)
BASE = {"imbalanced_gaussians": {"n_major": 40, "n_minor": 8}, "multimode": {"n_per_mode": 10}}
TRAIN = {"total_iters": 12, "pretrain_iters": 4, "batch_source": 8, "batch_target": 8}
# numpy's messages for a size whose arrays cannot be allocated.
ALLOCATION = ("Unable to allocate", "Maximum allowed dimension exceeded", "array is too big")


def _kind(default):
    if isinstance(default, bool):
        return "bool"
    if isinstance(default, (int, float)):
        return "number"
    return "list" if isinstance(default, list) else "string"


def _call(main, args):
    """main's exit status and stderr, or the repr of what it raised."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as out:
            status = main(args)
    except Exception as exc:  # noqa: BLE001 - anything raised is a finding
        return f"raised {exc!r}", err.getvalue(), ""
    return status, err.getvalue(), out.getvalue()


def sweep(work):
    """Print one JSON line per (scenario, section, key, value) case."""
    from clusteralign import cli

    work = Path(work)
    for scenario, dataset in BASE.items():
        resolved = cli.resolve_config({"scenario": scenario})
        for section in ("dataset", "train"):
            for key, default in resolved[section].items():
                for value in HOSTILE[_kind(default)]:
                    raw = {"scenario": scenario, "seeds": [0], "eval_every": 12,
                           "dataset": dict(dataset), "train": dict(TRAIN)}
                    raw[section][key] = value
                    path = work / "config.json"
                    path.write_text(json.dumps(raw))
                    status, err, out = _call(cli.main, ["validate", str(path)])
                    case = {"case": f"{scenario} {section}.{key}={value!r:.30}",
                            "validate": [status, err]}
                    ordinary = value in ORDINARY and not isinstance(value, bool)
                    if status == 0 and not ordinary and (
                            json.loads(out)["train"]["total_iters"] <= TRAIN["total_iters"]):
                        case["run"] = _call(cli.main, ["run", str(path), "--output-dir",
                                                       str(work / "out")])[:2]
                    print(json.dumps(case), flush=True)


def _validate_finding(status, err, keys):
    if status == 0:
        return None
    message = next((line for line in err.splitlines() if line.startswith("invalid config: ")),
                   "")
    named = re.match(r"invalid config: (dataset|train)\.(\w+)", message)
    if status == 2 and "Traceback" not in err and (
            (named and named[2] in keys[named[1]])
            or re.match(rf"invalid config: (dataset|train): ({'|'.join(ALLOCATION)})", message)):
        return None
    return f"validate exit {status}: {err.strip()[-300:]}"


def _run_finding(status, err):
    if "Traceback" not in err and (status == 0 or (status == 1 and any(
            re.match(r"run failed: seeds? 0\b", line) for line in err.splitlines()))):
        return None
    return f"run exit {status}: {err.strip()[-300:]}"


def test_hostile_values_exit_cleanly_from_validate_and_run(tmp_path):
    from clusteralign import cli

    keys = {"dataset": set(), "train": set()}
    for scenario in BASE:
        resolved = cli.resolve_config({"scenario": scenario})
        for section, names in keys.items():
            names.update(resolved[section])
    child = subprocess.run([sys.executable, __file__, str(tmp_path)], capture_output=True,
                           text=True, timeout=300, env=module_env(OPENBLAS_NUM_THREADS="1"))
    assert child.returncode == 0, child.stderr
    cases = [json.loads(line) for line in child.stdout.splitlines()]
    findings = [f"{case['case']}: {finding}" for case in cases for finding in (
        _validate_finding(*case["validate"], keys),
        _run_finding(*case["run"]) if "run" in case else None) if finding]
    assert not findings, "\n".join(findings)
    for scenario in BASE:
        assert any(case["case"].startswith(scenario) and "run" in case for case in cases)


if __name__ == "__main__":
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT))
    sweep(sys.argv[1])
