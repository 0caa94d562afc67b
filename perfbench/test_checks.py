"""Each check of the benchmark passes on genuine output and fails on corrupt output.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
from blinkfit import bench, mfr  # noqa: E402
from blinkfit.dwell import (  # noqa: E402
    DwellHistogram,
    auto_threshold,
    binarize,
    dwell_histogram,
    empirical_density,
)
from blinkfit.emitter import EmitterModel, generate_trace  # noqa: E402
from blinkfit.levmar import fit_exponential  # noqa: E402

TAU_ON, TAU_OFF = 15e-3, 45e-3


@pytest.fixture(scope="module")
def pipeline():
    trace = generate_trace(EmitterModel(TAU_ON, TAU_OFF), 200.0, 1e-3, "poisson", rng=7)
    threshold = auto_threshold(trace)
    states = binarize(trace, threshold)
    on, off = dwell_histogram(states)
    fits = {h.state: fit_exponential(empirical_density(h)) for h in (on, off)}
    lm = {state: fit.tau_hat for state, fit in fits.items()}
    return SimpleNamespace(
        trace=trace, threshold=threshold, states=states, on=on, off=off, fits=fits, lm=lm
    )


def _without_bin(hist, i):
    keep = np.arange(len(hist)) != i
    return DwellHistogram(hist.state, hist.bin_width, hist.indices[keep], hist.occurrences[keep])


def test_lm_against_mle(pipeline):
    assert checks.lm_against_mle(pipeline.lm["on"], pipeline.on) == []
    assert checks.lm_against_mle(1.5 * pipeline.lm["on"], pipeline.on)


def test_mle_against_truth(pipeline):
    assert checks.mle_against_truth(pipeline.off, TAU_OFF) == []
    stretched = DwellHistogram("off", 1e-3, 2 * pipeline.off.indices, pipeline.off.occurrences)
    assert checks.mle_against_truth(stretched, TAU_OFF)


def test_geometric_mle_matches_its_definition():
    # runs of 1, 2 and 3 bins, once each: mean 2 bins, p = 1/2
    hist = DwellHistogram("on", 1e-3, [1, 2, 3], [1, 1, 1])
    assert checks.geometric_mle(hist) == pytest.approx(1e-3 / np.log(2.0))


def test_bins_conserved(pipeline):
    states = pipeline.states.states
    assert checks.histograms_conserve_bins(states, pipeline.on, pipeline.off) == []
    assert checks.histograms_conserve_bins(states, _without_bin(pipeline.on, 3), pipeline.off)


def test_dwells_alternate(pipeline):
    on = pipeline.on
    extra = DwellHistogram("on", on.bin_width, on.indices, on.occurrences + (on.indices == 1) * 5)
    problems = checks.histograms_conserve_bins(pipeline.states.states, extra, pipeline.off)
    assert any("alternate" in p for p in problems)


def test_threshold_between_levels(pipeline):
    assert checks.threshold_between_levels(pipeline.threshold, pipeline.trace) == []
    assert checks.threshold_between_levels(5.0, pipeline.trace)


def test_on_fraction(pipeline):
    assert checks.on_fraction(pipeline.trace, TAU_ON, TAU_OFF) == []
    skewed = SimpleNamespace(
        duration=pipeline.trace.duration, hidden_states=pipeline.trace.hidden_states.copy()
    )
    skewed.hidden_states[:10_000] = True
    assert checks.on_fraction(skewed, TAU_ON, TAU_OFF)


def test_estimate_sane():
    good = SimpleNamespace(tau_hat=0.015, converged=True, method="ga")
    assert checks.estimate_sane(good, (1e-3, 0.1)) == []
    assert checks.estimate_sane(replace_ns(good, tau_hat=float("nan")))
    assert checks.estimate_sane(replace_ns(good, tau_hat=-0.01))
    assert checks.estimate_sane(replace_ns(good, tau_hat=0.2), (1e-3, 0.1))
    failed = SimpleNamespace(tau_hat=float("nan"), converged=False, method="ga")
    assert checks.estimate_sane(failed, (1e-3, 0.1)) == []


def replace_ns(ns, **changes):
    return SimpleNamespace(**{**vars(ns), **changes})


@pytest.fixture(scope="module")
def small_sweep(tmp_path_factory):
    """A real two-method sweep at 2 s and 20 s, with its raw trials."""
    scenario = bench.Scenario(durations=(2.0, 20.0), trials_per_cell=2, base_seed=5)
    models = bench.train_mfr_models(scenario, count=4)
    methods = ("lm", "mfr")
    trials = bench.collect_trials(scenario, methods, models=models, workers=1)
    cells = bench.sweep(scenario, methods, models=models, workers=1)
    out = tmp_path_factory.mktemp("sweep")
    bench.write_results_csv(cells, out / "results.csv")
    for state in ("on", "off"):
        bench.write_heatmap_csv(cells, state, out / f"heatmap_{state}.csv")
    expected = checks.expected_cells(trials, {"on": TAU_ON, "off": TAU_OFF})
    return SimpleNamespace(scenario=scenario, models=models, trials=trials, cells=cells,
                           expected=expected, out=out)


def test_cells_match(small_sweep):
    assert checks.cells_match(small_sweep.cells, small_sweep.expected) == {}
    cells = list(small_sweep.cells)
    cells[0] = replace(cells[0], accuracy=(cells[0].accuracy or 0.5) * 0.9)
    assert checks.cells_match(cells, small_sweep.expected)
    assert checks.cells_match(small_sweep.cells[1:], small_sweep.expected)


def test_expected_cells_sees_a_dropped_trial(small_sweep):
    trials = dict(small_sweep.trials)
    trials.pop(next(iter(trials)))
    assert checks.cells_match(small_sweep.cells, checks.expected_cells(trials, {"on": TAU_ON, "off": TAU_OFF}))


def test_results_csv(small_sweep):
    text = (small_sweep.out / "results.csv").read_text()
    assert checks.results_csv_matches(text, small_sweep.expected) == {}
    lines = text.splitlines(keepends=True)
    assert checks.results_csv_matches("".join(lines[:-1]), small_sweep.expected)
    blank = [line for line in lines[1:] if line.rstrip("\n").endswith(",,,")]
    full = [line for line in lines[1:] if not line.rstrip("\n").endswith(",,,")]
    if blank:
        filled = blank[0].rstrip("\n")[:-3] + ",0.9,0.1,0.001\n"
        assert checks.results_csv_matches(text.replace(blank[0], filled), small_sweep.expected)
    fields = full[0].split(",")
    emptied = ",".join(fields[:5]) + ",,,\n"
    assert checks.results_csv_matches(text.replace(full[0], emptied), small_sweep.expected)
    fields[4] = str(int(fields[4]) - 1)
    assert checks.results_csv_matches(text.replace(full[0], ",".join(fields)), small_sweep.expected)


def test_heatmap_csv(small_sweep):
    text = (small_sweep.out / "heatmap_on.csv").read_text()
    assert checks.heatmap_csv_matches(text, small_sweep.expected, "on") == {}
    header, *rows = text.splitlines()
    row = next(i for i, r in enumerate(rows) if r.split(",")[-1])
    method, *values = rows[row].split(",")
    rows[row] = ",".join([method, *values[:-1], "1.0"])
    corrupt = "\n".join([header, *rows]) + "\n"
    assert checks.heatmap_csv_matches(corrupt, small_sweep.expected, "on")


def test_ridge_normal_equations():
    corpus_on, _ = mfr.generate_training_corpus(
        mfr.DEFAULT_TAU_RANGE, 6, 2.0, bin_width=1e-3, rng=np.random.default_rng(3)
    )
    model = mfr.train_model(corpus_on, bin_width=1e-3, trained_duration=2.0)
    assert checks.ridge_normal_equations(model, corpus_on) == []
    perturbed = mfr.MfrModel(model.weights.copy(), model.n, 1e-3, 2.0, model.ridge_lambda)
    perturbed.weights[5] *= 1.001
    assert checks.ridge_normal_equations(perturbed, corpus_on)


def test_report_matches(pipeline):
    report = {"tau_on_s": pipeline.lm["on"], "tau_off_s": pipeline.lm["off"]}
    report.update({f"{state}_converged": fit.converged for state, fit in pipeline.fits.items()})
    report = json.loads(json.dumps(report))
    assert checks.report_matches(report, pipeline.fits) == []
    assert checks.report_matches({**report, "tau_on_s": 1.5 * report["tau_on_s"]}, pipeline.fits)
    assert checks.report_matches({**report, "off_converged": False}, pipeline.fits)


def test_lm_stalled(pipeline):
    assert not checks.lm_stalled(pipeline.fits["on"])
    stalled = SimpleNamespace(converged=False, diagnostics={"reason": "max_iter"})
    assert checks.lm_stalled(stalled)
    unphysical = SimpleNamespace(converged=False, diagnostics={"reason": "ftol"})
    assert not checks.lm_stalled(unphysical)
    failed = SimpleNamespace(converged=False, diagnostics={"error": "DivergenceError"})
    assert not checks.lm_stalled(failed)


def test_tracer_self_times_telescope():
    calls = []

    def inner(x):
        calls.append(x)
        return x

    def outer(x):
        return space.inner(x) + space.inner(x)

    space = SimpleNamespace(inner=inner, outer=outer)
    patches, tracer = probe.Patches(), probe.Tracer()
    tracer.wrap(patches, space, "inner", "t.inner")
    tracer.wrap(patches, space, "outer", "t.outer")
    assert space.outer(2) == 4
    patches.restore()
    assert space.inner is inner and space.outer is outer
    assert [s[0] for s in tracer.spans] == ["t.outer", "t.inner", "t.inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    own = probe.self_times(tracer.spans)
    assert sum(own.values()) == pytest.approx(tracer.spans[0][2] - tracer.spans[0][1])


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == probe.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
