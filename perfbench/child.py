"""One benchmark job in a fresh interpreter; `run.py` starts it.

Usage: python3 perfbench/child.py '<job JSON>'

The job's "mode" selects what runs:
  setup  import the package and build the state for the first train_step
  run    one `clusteralign run` call through `clusteralign.cli.main`
  trace  the same call with every layer function wrapped by the tracer
  micro  time the two kernels at given shapes

The package is imported from the checkout's `src` directory. Results go
to the JSON file named by the job's "result" key.
"""

import json
import resource
import sys
import time

job = json.loads(sys.argv[1])
sys.path.insert(0, job["src"])


def write_result(payload):
    payload["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(job["result"], "w") as fh:
        json.dump(payload, fh)


def setup():
    from clusteralign import cli, trainer

    with open(job["config"]) as fh:
        resolved = cli.resolve_config(json.load(fh))
    seed = job["seeds"][0]
    ds = cli.build_dataset(resolved, seed)
    cfg = cli.build_train_config(resolved, seed)
    trainer.init_train_state(cfg, ds)
    write_result({"ready": time.monotonic()})


def run(traced):
    from clusteralign import cli

    argv = ["run", job["config"], "--seed-override", ",".join(map(str, job["seeds"])),
            "--output-dir", job["output_dir"]]
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        tracer.save(job["spans"])
        with open(job["shapes"], "w") as fh:
            json.dump([[*key, count] for key, count in tracer.shapes.items()], fh)
    write_result({"exit": code, "wall_s": wall})
    return code


def _time_call(fn, args, min_seconds=0.1, min_reps=5):
    fn(*args)
    times = []
    deadline = time.perf_counter() + min_seconds
    while len(times) < min_reps or time.perf_counter() < deadline:
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


def micro():
    import numpy as np

    from clusteralign.kernels import kmeans_assign, pairwise_margin_loss

    rng = np.random.default_rng(job["seed"])
    rows = []
    for kernel, n, d, *rest in job["shapes"]:
        points = rng.normal(size=(n, d))
        if kernel == "pairwise_margin_loss":
            labels = rng.integers(2, size=n)
            seconds = _time_call(pairwise_margin_loss, (points, labels, 3.0, True))
            pairs = n * n
        else:
            k = rest[0]
            seconds = _time_call(kmeans_assign, (points, rng.normal(size=(k, d))))
            pairs = n * k
        rows.append({"kernel": kernel, "shape": [n, d, *rest], "seconds": seconds,
                     "pairs_per_us": pairs / (seconds * 1e6)})
    write_result({"rows": rows})


if __name__ == "__main__":
    mode = job["mode"]
    if mode == "setup":
        setup()
    elif mode == "micro":
        micro()
    else:
        sys.exit(run(traced=mode == "trace"))
