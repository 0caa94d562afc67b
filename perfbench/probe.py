"""Wrappers that the benchmark puts around blinkfit's public functions.

Nothing here edits the program.  A wrapper replaces a function on the
module where callers look it up (``run_ga`` finds ``kmeans_cluster`` in
``blinkfit.ga``; ``bench.run_trial`` finds ``generate_trace`` in
``blinkfit.bench``), so the program calls it in place of the original.

Two kinds of wrapper exist:

- an observer hands each return value and the call's wall time to a
  callback, so that checks can see intermediate outputs (the trace a
  trial simulated, the histograms it tallied) without computing them a
  second time, and a workload can time its ops;
- a span records name, start, end and parent of each call, in memory, for
  the per-layer metrics of a traced run.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter


class Patches:
    """Replaced module attributes, put back by restore()."""

    def __init__(self):
        self._saved = []

    def replace(self, module, attr, make):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(make(original)))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def observe(patches: Patches, module, attr: str, on_return) -> None:
    """Call on_return(args, result, seconds) after every call of module.attr."""

    def make(fn):
        def observed(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            on_return(args, result, perf_counter() - start)
            return result

        return observed

    patches.replace(module, attr, make)


class Tracer:
    """In-memory span recorder.

    A span is [name, start, end, parent index, attrs]; parent is -1 for a
    call made directly by the benchmark.  attrs holds the counts taken from
    the call's arguments and result, or {"raised": True}.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, patches: Patches, module, attr: str, name: str, attrs=None) -> None:
        spans, stack = self.spans, self._stack

        def make(fn):
            def traced(*args, **kwargs):
                index = len(spans)
                span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
                spans.append(span)
                stack.append(index)
                span[1] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    span[2] = perf_counter()
                    stack.pop()
                    span[4] = {"raised": True}
                    raise
                span[2] = perf_counter()
                stack.pop()
                if attrs is not None:
                    span[4] = attrs(args, result)
                return result

            return traced

        patches.replace(module, attr, make)

    def write(self, path) -> None:
        """Dump the spans as CSV: name,start_s,end_s,parent."""
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name, start, end, parent, _ in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")


def _bins(args, trace):
    return {"bins": len(trace)}


def _rows(args, trace):
    return {"rows": len(trace)}


def _dwells(args, hists):
    return {"dwells": hists[0].total + hists[1].total}


def _lm_iterations(args, est):
    return {"iterations": est.diagnostics["iterations"]}


def _ga_accepted(args, est):
    return {"accepted": est.diagnostics["accepted"]}


def _lloyd(args, clustering):
    return {"lloyd": len(clustering.phi_history) - 1}


def _silhouette_points(args, report):
    m = args[0].points.shape[0]
    return {"points_squared": m * m}


# (module, attribute, span name, attrs).  A function is wrapped on every
# module that looks it up, so each call is seen once whoever makes it.
LAYERS = (
    ("bench", "generate_trace", "emitter.generate_trace", _bins),
    ("mfr", "generate_trace", "emitter.generate_trace", _bins),
    ("cli", "generate_trace", "emitter.generate_trace", _bins),
    ("cli", "write_trace", "emitter.write_trace", None),
    ("cli", "read_trace", "emitter.read_trace", _rows),
    ("bench", "auto_threshold", "dwell.auto_threshold", None),
    ("cli", "auto_threshold", "dwell.auto_threshold", None),
    ("bench", "binarize", "dwell.binarize", None),
    ("mfr", "binarize", "dwell.binarize", None),
    ("cli", "binarize", "dwell.binarize", None),
    ("bench", "dwell_histogram", "dwell.dwell_histogram", _dwells),
    ("mfr", "dwell_histogram", "dwell.dwell_histogram", _dwells),
    ("cli", "dwell_histogram", "dwell.dwell_histogram", _dwells),
    ("bench", "fit_exponential", "levmar.fit_exponential", _lm_iterations),
    ("cli", "fit_exponential", "levmar.fit_exponential", _lm_iterations),
    ("mfr", "generate_training_corpus", "mfr.generate_training_corpus", None),
    ("mfr", "train_model", "mfr.train_model", None),
    ("mfr", "estimate", "mfr.estimate", None),
    ("mfr", "featurize", "mfr.featurize", None),
    ("ga", "run_ga", "ga.run_ga", _ga_accepted),
    ("ga", "kmeans_cluster", "ga.kmeans_cluster", _lloyd),
    ("ga", "silhouette", "ga.silhouette", _silhouette_points),
    ("ga", "extract_tau", "ga.extract_tau", None),
    ("ga", "mutate", "ga.mutate", None),
    ("ga", "crossover_clone_exchange", "ga.crossover_clone_exchange", None),
    ("ga", "spawn_individual", "ga.spawn_individual", None),
    ("ga", "heuristic_estimate", "ga.heuristic_estimate", None),
    ("bench", "run_trial", "bench.run_trial", None),
    ("bench", "train_mfr_models", "bench.train_mfr_models", None),
    ("bench", "sweep", "bench.sweep", None),
    ("bench", "write_results_csv", "bench.write_csv", None),
    ("bench", "write_heatmap_csv", "bench.write_csv", None),
    ("cli", "main", "cli.main", None),
)


def trace_layers(patches: Patches, tracer: Tracer, blinkfit_modules: dict) -> None:
    """Wrap every layer function of blinkfit in a span."""
    for module, attr, name, attrs in LAYERS:
        tracer.wrap(patches, blinkfit_modules[module], attr, name, attrs)


SELF_TIMES = [
    "emitter.generate_trace",
    "emitter.write_trace",
    "emitter.read_trace",
    "dwell.auto_threshold",
    "dwell.binarize",
    "dwell.dwell_histogram",
    "levmar.fit_exponential",
    "mfr.generate_training_corpus",
    "mfr.train_model",
    "mfr.estimate",
    "ga.run_ga",
    "ga.kmeans_cluster",
    "ga.silhouette",
    "ga.extract_tau",
    "ga.mutate",
    "ga.crossover_clone_exchange",
    "ga.spawn_individual",
    "ga.heuristic_estimate",
    "bench.run_trial",
    "bench.train_mfr_models",
    "bench.sweep",
    "bench.write_csv",
    "cli.main",
]
CALLS = [
    "emitter.generate_trace",
    "levmar.fit_exponential",
    "mfr.featurize",
    "ga.run_ga",
    "ga.kmeans_cluster",
    "ga.extract_tau",
]
# name -> (unit, better)
PER_LAYER = {
    **{f"{name}.self_s": ("s", "lower") for name in SELF_TIMES},
    **{f"{name}.calls": ("count", "lower") for name in CALLS},
    "emitter.bins": ("count", "lower"),
    "emitter.read_trace.rows": ("count", "lower"),
    "dwell.dwells": ("count", "lower"),
    "levmar.iterations": ("count", "lower"),
    "ga.generations": ("count", "lower"),
    "ga.lloyd_iterations": ("count", "lower"),
    "ga.silhouette.distances": ("count", "lower"),
    "ga.extract_tau.rejected": ("count", "lower"),
    "ga.accepted": ("count", "higher"),
    "ga.accepted_per_generation": ("ratio", "higher"),
    "ga.fallback_runs": ("count", "lower"),
}


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus direct children."""
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - children[i]
    return out


def layer_metrics(spans, ops: int) -> dict[str, float]:
    """Per-layer metrics, each a total over the spans divided by ops."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    sums: dict[str, float] = defaultdict(float)
    raised: dict[str, int] = defaultdict(int)
    fallback_runs = 0
    for name, _, _, _, attrs in spans:
        calls[name] += 1
        attrs = attrs or {}
        if attrs.get("raised"):
            raised[name] += 1
        for key, value in attrs.items():
            if key != "raised":
                sums[f"{name}.{key}"] += value
        if name == "ga.run_ga" and "accepted" in attrs:
            fallback_runs += attrs["accepted"] == 0

    generations = calls["ga.silhouette"] / 2
    accepted = sums["ga.run_ga.accepted"]
    values = {f"{name}.self_s": own.get(name, 0.0) for name in SELF_TIMES}
    values.update({f"{name}.calls": calls[name] for name in CALLS})
    values.update(
        {
            "emitter.bins": sums["emitter.generate_trace.bins"],
            "emitter.read_trace.rows": sums["emitter.read_trace.rows"],
            "dwell.dwells": sums["dwell.dwell_histogram.dwells"],
            "levmar.iterations": sums["levmar.fit_exponential.iterations"],
            "ga.generations": generations,
            "ga.lloyd_iterations": sums["ga.kmeans_cluster.lloyd"],
            "ga.silhouette.distances": sums["ga.silhouette.points_squared"],
            "ga.extract_tau.rejected": raised["ga.extract_tau"],
            "ga.accepted": accepted,
            "ga.fallback_runs": fallback_runs,
        }
    )
    per_op = {name: value / ops for name, value in values.items()}
    per_op["ga.accepted_per_generation"] = accepted / generations if generations else 0.0
    return per_op

