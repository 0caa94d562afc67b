"""Seeded benchmark harness comparing the three estimators.

Runs repeated trials over a grid of trace durations, extracting tau_on and
tau_off with the Levenberg-Marquardt fit, the multi-feature regression and
the genetic algorithm, then aggregates accuracy (1 - median relative
error), precision (trial-to-trial standard deviation) and convergence rate
per grid cell.  Each estimator gives its own verdict (LM's sanity bound
lives in levmar.fit_exponential), so the harness adds no rule of its own.
Every trial derives its RNG from a stable hash of (base_seed, duration,
method, trial index), so results are reproducible and order-independent.
"""

from __future__ import annotations

import hashlib
import os
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ga as ga_mod
from . import mfr as mfr_mod
from .dwell import auto_threshold, binarize, dwell_histogram, empirical_density
from .emitter import BlinkTrace, EmitterModel, check_sampling, generate_trace
from .estimate import RateEstimate
from .levmar import fit_exponential

METHODS = ("lm", "mfr", "ga")
DEFAULT_GA_TAU_RANGE = (1e-3, 100e-3)


@dataclass(frozen=True)
class Scenario:
    """One benchmark setting: true lifetimes, binning, durations, trials."""

    tau_on: float = 15e-3
    tau_off: float = 45e-3
    bin_width: float = 1e-3
    durations: tuple[float, ...] = (0.2, 2.0, 20.0, 200.0, 1000.0)
    noise: str | None = "poisson"
    trials_per_cell: int = 50
    base_seed: int = 1234

    def __post_init__(self):
        # the emitter's rules refuse the lifetimes and each (duration, bin_width, noise)
        EmitterModel(self.tau_on, self.tau_off)
        durations = self.durations
        if not durations or any(a >= b for a, b in zip(durations, durations[1:])):
            raise ValueError("durations must be non-empty and strictly increasing")
        for duration in durations:
            check_sampling(duration, self.bin_width, self.noise)
        if type(self.trials_per_cell) is not int or self.trials_per_cell < 1:
            raise ValueError("trials_per_cell must be an integer of at least 1")


def default_scenario(**overrides) -> Scenario:
    return Scenario(**overrides)


def fig2_scenario(**overrides) -> Scenario:
    """Preset mirroring the measured NV-center time constants."""
    params = {"tau_on": 4.8e-3, "tau_off": 6.7e-3}
    params.update(overrides)
    return Scenario(**params)


@dataclass
class BenchCell:
    """Aggregated trial statistics for one (method, state, duration).

    cell_statistics builds every cell.  accuracy is max(0, 1 -
    median_rel_error) but stays a field: perfbench/test_checks.py sets it
    with dataclasses.replace to check that a wrong value is caught.
    """

    method: str
    state: str
    duration: float
    trials: int
    converged: int
    median_rel_error: float | None
    accuracy: float | None
    precision: float | None

    @property
    def convergence_rate(self) -> float:
        return self.converged / self.trials

    @property
    def blank(self) -> bool:
        """Mirrors the heatmap's empty cells: under half the trials converged."""
        return self.convergence_rate < 0.5


def stable_seed(*parts) -> int:
    """Platform-independent 63-bit seed from a tuple of hashable parts."""
    text = "|".join(repr(p) for p in parts)
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def _failed(method: str, error: Exception) -> RateEstimate:
    return RateEstimate(
        tau_hat=float("nan"),
        std_err=float("nan"),
        method=method,
        converged=False,
        diagnostics={"error": type(error).__name__, "message": str(error)},
    )


def analyze_trace(
    trace: BlinkTrace,
    method: str,
    seed: int,
    *,
    models: dict[str, mfr_mod.MfrModel] | None = None,
    ga_config: ga_mod.GaConfig | None = None,
) -> tuple[float | None, dict[str, RateEstimate]]:
    """Threshold a trace, tally its dwells and estimate both lifetimes.

    The one analysis path of the bench and of `blinkfit analyze`.  models
    maps "on"/"off" to the MFR models (method "mfr" only); the GA draws
    from stable_seed(seed, "ga", state).  Returns the threshold (None when
    thresholding or histogramming failed) and an estimate per state.
    Each estimator is called as is.  Its refusals (every library error is a
    ValueError) are recorded as non-converged estimates rather than raised;
    the failure class and message are kept in the diagnostics.  An unknown
    method, or "mfr" without models, raises ValueError.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "mfr" and models is None:
        raise ValueError("method 'mfr' needs models")
    try:
        threshold = auto_threshold(trace)
        hists = dict(zip(("on", "off"), dwell_histogram(binarize(trace, threshold))))
    except ValueError as exc:
        return None, {state: _failed(method, exc) for state in ("on", "off")}

    out = {}
    for state, hist in hists.items():
        try:
            if method == "lm":
                out[state] = fit_exponential(empirical_density(hist))
            elif method == "mfr":
                out[state] = mfr_mod.estimate(models[state], hist, trace.duration)
            else:
                cfg = ga_config or ga_mod.GaConfig(tau_range=DEFAULT_GA_TAU_RANGE)
                out[state] = ga_mod.run_ga(hist, cfg, rng=stable_seed(seed, "ga", state))
        except ValueError as exc:
            out[state] = _failed(method, exc)
    return threshold, out


def run_trial(
    scenario: Scenario,
    duration: float,
    method: str,
    trial_index: int,
    *,
    models: dict | None = None,
) -> dict[str, RateEstimate]:
    """One seeded trial: simulate a trace, then analyze_trace it."""
    if method == "mfr" and (models is None or duration not in models):
        raise ValueError(f"no MFR model trained for duration {duration}")
    seed = stable_seed(scenario.base_seed, duration, method, trial_index)
    model = EmitterModel(tau_on=scenario.tau_on, tau_off=scenario.tau_off)
    trace = generate_trace(model, duration, scenario.bin_width, scenario.noise, rng=seed)
    state_models = models[duration] if method == "mfr" else None
    _, estimates = analyze_trace(trace, method, seed, models=state_models)
    return estimates


def train_mfr_models(
    scenario: Scenario, *, count: int = mfr_mod.DEFAULT_TRAINING_SETS
) -> dict[float, dict[str, mfr_mod.MfrModel]]:
    """Train one (on, off) model pair per scenario duration, with derived seeds."""
    return {
        duration: mfr_mod.train_pair(
            mfr_mod.DEFAULT_TAU_RANGE,
            count,
            duration,
            bin_width=scenario.bin_width,
            photon_noise=scenario.noise,
            rng=np.random.default_rng(stable_seed(scenario.base_seed, "mfr-train", duration)),
        )
        for duration in scenario.durations
    }


def accuracy(tau_hat: float, tau_true: float) -> float:
    """1 minus the relative error, floored at zero."""
    if tau_true <= 0:
        raise ValueError("tau_true must be positive")
    return max(0.0, 1.0 - abs(tau_hat - tau_true) / tau_true)


def precision(estimates) -> float | None:
    """Sample standard deviation of the estimates; None below two samples."""
    values = [e for e in estimates if np.isfinite(e)]
    if len(values) < 2:
        return None
    return float(statistics.stdev(values))


def cell_statistics(
    method: str, state: str, duration: float, estimates, truth: float
) -> BenchCell:
    """One cell's statistics from its trial estimates and the true lifetime.

    Non-converged trials are excluded from the error/precision statistics
    but still count towards the convergence rate; a cell with convergence
    rate below one half is marked blank.
    """
    good = [e.tau_hat for e in estimates if e.converged]
    med = float(np.median([abs(t - truth) / truth for t in good])) if good else None
    return BenchCell(
        method=method,
        state=state,
        duration=duration,
        trials=len(estimates),
        converged=len(good),
        median_rel_error=med,
        accuracy=None if med is None else max(0.0, 1.0 - med),
        precision=precision(good),
    )


def _trial_task(args):
    scenario, duration, method, index, models = args
    return (method, duration, index), run_trial(scenario, duration, method, index, models=models)


def collect_trials(
    scenario: Scenario,
    methods=METHODS,
    *,
    models=None,
    workers: int | None = None,
):
    """All trial estimates for the grid, keyed by (method, duration, index)."""
    if workers is None:
        workers = int(os.environ.get("BLINKFIT_THREADS", "1"))
    tasks = [
        (scenario, duration, method, index, models if method == "mfr" else None)
        for method in methods
        for duration in scenario.durations
        for index in range(scenario.trials_per_cell)
    ]
    if workers > 1:
        # imported here: no serial run pays for concurrent.futures
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return dict(pool.map(_trial_task, tasks, chunksize=8))
    return dict(map(_trial_task, tasks))


def sweep(
    scenario: Scenario,
    methods=METHODS,
    *,
    models=None,
    workers: int | None = None,
) -> list[BenchCell]:
    """Aggregate the full methods x durations x states grid into cells."""
    trials = scenario.trials_per_cell
    raw = collect_trials(scenario, methods, models=models, workers=workers)
    cells = []
    for method in methods:
        for duration in scenario.durations:
            for state, truth in (("on", scenario.tau_on), ("off", scenario.tau_off)):
                estimates = [raw[(method, duration, index)][state] for index in range(trials)]
                cells.append(cell_statistics(method, state, duration, estimates, truth))
    return cells


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def write_results_csv(cells, path) -> None:
    """results CSV, one row per cell; blank cells keep only the rate."""
    path = Path(path)
    with path.open("w") as fh:
        fh.write("method,state,duration_s,trials,converged,accuracy,median_rel_err,precision_s\n")
        for cell in sorted(cells, key=lambda c: (c.method, c.state, c.duration)):
            if cell.blank:
                acc = err = prec = ""
            else:
                acc, err, prec = _fmt(cell.accuracy), _fmt(cell.median_rel_error), _fmt(cell.precision)
            fh.write(
                f"{cell.method},{cell.state},{repr(cell.duration)},{cell.trials},"
                f"{cell.converged},{acc},{err},{prec}\n"
            )


def write_heatmap_csv(cells, state: str, path) -> None:
    """Precision matrix (methods x durations) for one state, Fig-3 style."""
    path = Path(path)
    state_cells = [c for c in cells if c.state == state]
    durations = sorted({c.duration for c in state_cells})
    methods = sorted({c.method for c in state_cells})
    lookup = {(c.method, c.duration): c for c in state_cells}
    with path.open("w") as fh:
        fh.write("method," + ",".join(repr(d) for d in durations) + "\n")
        for method in methods:
            row = [method]
            for duration in durations:
                cell = lookup.get((method, duration))
                row.append("" if cell is None or cell.blank else _fmt(cell.precision))
            fh.write(",".join(row) + "\n")


def summary_table(cells) -> str:
    """Human-readable grid summary."""
    lines = [
        f"{'method':>6} {'state':>5} {'duration_s':>10} {'conv':>6} "
        f"{'accuracy':>9} {'precision_s':>12}"
    ]
    for cell in sorted(cells, key=lambda c: (c.method, c.state, c.duration)):
        acc = "-" if cell.blank or cell.accuracy is None else f"{cell.accuracy:.3f}"
        prec = "-" if cell.blank or cell.precision is None else f"{cell.precision:.2e}"
        lines.append(
            f"{cell.method:>6} {cell.state:>5} {cell.duration:>10g} "
            f"{cell.convergence_rate:>6.2f} {acc:>9} {prec:>12}"
        )
    return "\n".join(lines)
