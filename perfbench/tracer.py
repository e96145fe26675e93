"""Span tracer that wraps the public functions of every clusteralign module.

The package modules import each other's functions by name (`from
clusteralign.network import forward`), so wrapping only the defining
module would miss most calls. `Tracer.install` therefore replaces every
module-level binding, in every loaded clusteralign module, that refers to
a public function of one of the layers. `uninstall` restores them.

Each call becomes one span: name, start, end, parent span, experiment seed
and two probe values (a work count such as rows or pairs). Spans stay in
memory as lists and are saved in one `.npz` file after the run. Nothing in
the library is edited.
"""

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "data", "trainer", "network", "losses", "kernels", "teacher",
          "evaluate", "seeding")


def _forward_rows(args, result):
    return len(args[1]), 0


def _corrected_rows(args, result):
    return result.shape[0], 0


def _temporal_rows_copied(args, result):
    # A fresh ensemble buffer means the whole table was copied; an update
    # that shares the input's buffer touched only the batch rows.
    old = args[0].ensemble
    if np.shares_memory(result.ensemble, old):
        return len(args[1]), 0
    return old.shape[0], 0


def _selection(args, result):
    return result[3], len(args[1])


class Tracer:
    """Records one span per call into the clusteralign layers."""

    def __init__(self):
        self.names = []
        self.rows = []
        self.shapes = Counter()
        self._stack = [-1]
        self._seed = -1
        self._restore = []

    # -- probes that need tracer state -------------------------------------

    def _pairwise_pairs(self, args, result):
        n, d = np.shape(args[0])
        self.shapes["pairwise_margin_loss", n, d] += 1
        return n * n, 0

    def _assign_points(self, args, result):
        n, d = np.shape(args[0])
        k = np.shape(args[1])[0]
        self.shapes["kmeans_assign", n, d, k] += 1
        return n, n * k

    def _enter_seed(self, args):
        self._seed = int(args[1])

    def _useful_terms(self, schedule_weights):
        # Bit 0: the clustering weight is non-zero on this step; bit 1: the
        # alignment weight is. The weight is alpha times the term's switch.
        def probe(args, result):
            cfg = args[2]
            alpha, _ = schedule_weights(cfg, args[0].iteration)
            return (alpha * cfg.use_clustering != 0) + 2 * (alpha * cfg.use_alignment != 0), 0
        return probe

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every public layer function at every binding that holds it."""
        modules = {layer: importlib.import_module(f"clusteralign.{layer}") for layer in LAYERS}
        originals = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_")):
                    originals[id(value)] = (f"{layer}.{attr}", value)
        probes = {
            "network.forward": _forward_rows,
            "kernels.pairwise_margin_loss": self._pairwise_pairs,
            "kernels.kmeans_assign": self._assign_points,
            "teacher.corrected_probabilities": _corrected_rows,
            "teacher.temporal_update": _temporal_rows_copied,
            "losses.domain_adversarial_loss": _selection,
            "trainer.train_step": self._useful_terms(modules["trainer"].schedule_weights),
        }
        enters = {"cli.build_dataset": self._enter_seed}
        wrappers = {
            key: (fn, self._wrap(name, fn, probes.get(name), enters.get(name)))
            for key, (name, fn) in originals.items()
        }
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "clusteralign" and not mod_name.startswith("clusteralign."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, name, fn, probe, enter):
        name_id = len(self.names)
        self.names.append(name)
        rows = self.rows
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if enter is not None:
                enter(args)
            row = [name_id, 0.0, 0.0, stack[-1], self._seed, 0, 0]
            stack.append(len(rows))
            rows.append(row)
            row[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    row[5], row[6] = probe(args, result)
            finally:
                row[2] = perf_counter()
                stack.pop()
            return result

        return wrapper

    # -- output ---------------------------------------------------------------

    def arrays(self):
        """All spans as named columns."""
        table = np.array(self.rows, dtype=np.float64).reshape(-1, 7)
        return {
            "names": np.array(self.names),
            "name": table[:, 0].astype(np.int64),
            "start": table[:, 1],
            "end": table[:, 2],
            "parent": table[:, 3].astype(np.int64),
            "seed": table[:, 4].astype(np.int64),
            "v1": table[:, 5],
            "v2": table[:, 6],
        }

    def save(self, path):
        """Write all spans to one uncompressed .npz file."""
        np.savez(path, **self.arrays())


class Spans:
    """Read-side view of a saved trace, with self times and ownership."""

    def __init__(self, names, name, start, end, parent, seed, v1, v2):
        self.names = [str(n) for n in names]
        self.name = np.asarray(name)
        self.start = np.asarray(start)
        self.end = np.asarray(end)
        self.parent = np.asarray(parent)
        self.seed = np.asarray(seed)
        self.v1 = np.asarray(v1)
        self.v2 = np.asarray(v2)
        self.duration = self.end - self.start
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=self.duration[has_parent],
                              minlength=len(self.parent))
        self.self_time = self.duration - covered

    @classmethod
    def load(cls, path):
        with np.load(path) as data:
            return cls(**{key: data[key] for key in data.files})

    @classmethod
    def from_tracer(cls, tracer):
        return cls(**tracer.arrays())

    def mask(self, name):
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(name)

    def owner(self, name):
        """Index of each span's nearest enclosing `name` span (itself
        included), or -1. Parents always precede their children."""
        target = self.names.index(name) if name in self.names else -2
        owner = np.full(len(self.name), -1, dtype=np.int64)
        name_list = self.name.tolist()
        parent_list = self.parent.tolist()
        for i, (nid, parent) in enumerate(zip(name_list, parent_list)):
            if nid == target:
                owner[i] = i
            elif parent >= 0:
                owner[i] = owner[parent]
        return owner

    def counts_within(self, name):
        """One Counter per `name` span: calls made beneath it, by name."""
        owner = self.owner(name)
        per_owner = {int(i): Counter() for i in np.flatnonzero(self.mask(name))}
        for i in np.flatnonzero((owner >= 0) & (owner != np.arange(len(owner)))):
            per_owner[int(owner[i])][self.names[self.name[i]]] += 1
        return per_owner


def layer_metrics(spans):
    """Per-layer metrics of one traced run: {name: (value, unit)}."""
    out = {}

    def stat(name, *stats, work=None):
        mask = spans.mask(name)
        for key in stats:
            if key == "calls":
                out[f"{name}.calls"] = (int(mask.sum()), "count")
            elif key == "self_s":
                out[f"{name}.self_s"] = (float(spans.self_time[mask].sum()), "s")
            elif key == "total_s":
                out[f"{name}.total_s"] = (float(spans.duration[mask].sum()), "s")
        if work is not None:
            out[f"{name}.{work}"] = (int(spans.v1[mask].sum()), "count")
        return mask

    stat("kernels.pairwise_margin_loss", "calls", "self_s", work="pairs")
    stat("kernels.kmeans_assign", "calls", "self_s", work="points")
    for loss in ("cross_entropy", "clustering_loss", "alignment_loss",
                 "domain_adversarial_loss"):
        stat(f"losses.{loss}", "self_s")
    stat("network.forward", "calls", "self_s", work="rows")
    stat("network.backward", "calls", "self_s")
    stat("network.sgd_step", "calls", "self_s")
    stat("teacher.corrected_probabilities", "calls", "self_s", work="rows")
    stat("teacher.temporal_update", "calls", "self_s", work="rows_copied")
    stat("teacher.pseudo_labels", "self_s")
    stat("seeding.derive_seed", "calls", "self_s")
    stat("seeding.seeded_rng", "calls", "self_s")
    steps = stat("trainer.train_step", "calls", "self_s")
    stat("trainer.run_training", "self_s")
    stat("evaluate.snapshot", "calls", "total_s", "self_s")
    stat("evaluate.kmeans_best", "total_s")
    stat("data.iterate_batches", "calls", "self_s")
    stat("data.dump_dataset_csv", "total_s")

    step_ms = spans.duration[steps] * 1e3
    out["trainer.train_step.ms_p50"] = (float(np.percentile(step_ms, 50)), "ms")
    out["trainer.train_step.ms_p99"] = (float(np.percentile(step_ms, 99)), "ms")

    # Share of train-step clustering/alignment calls whose weight is
    # non-zero; the step's probe holds one bit per term.
    step_of = spans.owner("trainer.train_step")
    in_step = step_of >= 0
    useful = attempts = 0
    for term, bit in (("losses.clustering_loss", 1), ("losses.alignment_loss", 2)):
        calls = spans.mask(term) & in_step
        attempts += int(calls.sum())
        useful += int((spans.v1[step_of[calls]].astype(np.int64) & bit).astype(bool).sum())
    out["losses.useful_share"] = (useful / attempts if attempts else 1.0, "ratio")

    critic = spans.mask("losses.domain_adversarial_loss") & in_step
    targets = spans.v2[critic].sum()
    out["losses.selection_rate"] = (float(spans.v1[critic].sum() / targets) if targets else 0.0,
                                    "ratio")

    export = (spans.mask("cli.write_metrics_csv") | spans.mask("cli.write_features_csv")
              | spans.mask("data.dump_dataset_csv"))
    out["cli.export_s"] = (float(spans.duration[export].sum()), "s")
    return out
