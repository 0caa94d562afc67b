"""Checks on the outputs of the benchmark's workloads.

Each check compares a program output with a computation made here, apart
from the program, or with a property the method must have; none compares
with a stored copy of earlier output.  A check returns a list of problems,
empty when the output passes.

The statistical allowances use the information floor of a dwell law: with
N interior dwells of mean tau, no unbiased estimator scatters less than
tau/sqrt(N) (the Cramér-Rao floor).  Allowances are stated in multiples
of that floor, so they tighten as the traces grow.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# Binned dwells run long: a dwell shorter than about half a bin vanishes
# and merges its two neighbours.  With 1 ms bins the geometric MLE sat
# +2.4 % (tau_on = 15 ms) and +4.5 % (tau_off = 45 ms) above the truth on
# average over 150 traces of 200 s, and at most +8.8 %.
BIAS_ALLOWANCE = 0.08
# Sampling allowance of the MLE around the biased truth, in floors.
MLE_FLOORS = 6.0
# LM against the MLE on the same histogram: the ratio scattered by 2.5
# floors (standard deviation) over 300 estimates on 200 s traces, with
# tails to 8.4 floors.
LM_MLE_FLOORS = 16.0
# On-fraction of the hidden states, in standard deviations of the
# renewal-process fraction.
ON_FRACTION_SDS = 6.0
# (X^T X + Lambda) w = X^T y holds to this relative residual.
RIDGE_RTOL = 1e-8
# Recomputed cell statistics agree with the program's to this relative
# tolerance (summation order may differ).
STAT_RTOL = 1e-9


def geometric_mle(hist) -> float:
    """Closed-form MLE of a binned exponential: -bin / ln(1 - 1/mean run)."""
    kbar = float((hist.indices * hist.occurrences).sum()) / hist.total
    return -hist.bin_width / math.log(1.0 - 1.0 / kbar)


def lm_against_mle(tau_lm: float, hist) -> list[str]:
    """LM agrees with the geometric MLE of the same histogram."""
    mle = geometric_mle(hist)
    allowed = LM_MLE_FLOORS / math.sqrt(hist.total)
    deviation = tau_lm / mle - 1.0
    if not abs(deviation) <= allowed:
        return [f"{hist.state}: LM/MLE - 1 = {deviation:+.4f}, allowed +-{allowed:.4f}"]
    return []


def mle_against_truth(hist, truth: float) -> list[str]:
    """The MLE lies within the missed-event bias allowance of the truth."""
    mle = geometric_mle(hist)
    slack = MLE_FLOORS / math.sqrt(hist.total)
    deviation = mle / truth - 1.0
    if not -slack <= deviation <= BIAS_ALLOWANCE + slack:
        return [
            f"{hist.state}: MLE/truth - 1 = {deviation:+.4f}, "
            f"allowed [{-slack:+.4f}, {BIAS_ALLOWANCE + slack:+.4f}]"
        ]
    return []


def boundary_runs(states: np.ndarray) -> tuple[int, int]:
    """Lengths of the first and last runs of a state sequence."""
    change = np.flatnonzero(states[1:] != states[:-1])
    if change.size == 0:
        return states.size, 0
    return int(change[0]) + 1, int(states.size - change[-1] - 1)


def histograms_conserve_bins(states: np.ndarray, hist_on, hist_off) -> list[str]:
    """Interior dwells plus the two censored runs cover every bin once."""
    problems = []
    first, last = boundary_runs(states)
    interior = sum(int((h.indices * h.occurrences).sum()) for h in (hist_on, hist_off))
    if interior + first + last != states.size:
        problems.append(
            f"bins not conserved: {interior} interior + {first} + {last} "
            f"censored != {states.size}"
        )
    if abs(hist_on.total - hist_off.total) > 1:
        problems.append(
            f"on and off dwells must alternate: {hist_on.total} on, {hist_off.total} off"
        )
    return problems


def threshold_between_levels(threshold: float, trace) -> list[str]:
    if not trace.mean_off_counts < threshold < trace.mean_on_counts:
        return [
            f"threshold {threshold} outside ({trace.mean_off_counts}, {trace.mean_on_counts})"
        ]
    return []


def on_fraction(trace, tau_on: float, tau_off: float) -> list[str]:
    """Share of on bins is tau_on/(tau_on+tau_off) within sampling error.

    Over N = duration/(tau_on+tau_off) cycles of exponential dwells the
    on-fraction has variance 2 tau_on^2 tau_off^2 / (N (tau_on+tau_off)^4).
    """
    cycle = tau_on + tau_off
    cycles = trace.duration / cycle
    sd = math.sqrt(2.0 * (tau_on * tau_off) ** 2 / (cycles * cycle**4))
    measured = float(np.mean(trace.hidden_states))
    expected = tau_on / cycle
    if not abs(measured - expected) <= ON_FRACTION_SDS * sd:
        return [f"on-fraction {measured:.5f}, expected {expected:.5f} +- {ON_FRACTION_SDS * sd:.5f}"]
    return []


def estimate_sane(est, tau_range=None) -> list[str]:
    """A converged estimate is finite, positive and, for GA, in tau_range.

    Estimates the harness recorded as failures (not converged) carry NaN.
    """
    problems = []
    if not est.converged:
        return problems
    if not (math.isfinite(est.tau_hat) and est.tau_hat > 0):
        problems.append(f"{est.method} converged to tau {est.tau_hat}")
    if tau_range is not None and not tau_range[0] <= est.tau_hat <= tau_range[1]:
        problems.append(f"{est.method} tau {est.tau_hat} outside {tau_range}")
    return problems


def expected_cells(trials: dict, truths: dict) -> dict:
    """Cell statistics recomputed from the raw trial estimates.

    trials maps (method, duration, index) to {state: RateEstimate}; the
    result maps (method, state, duration) to a dict of trials, converged,
    accuracy, median_rel_error and precision (None where undefined).
    """
    grouped: dict = {}
    for (method, duration, _), per_state in trials.items():
        for state, est in per_state.items():
            grouped.setdefault((method, state, duration), []).append(est)
    cells = {}
    for key, estimates in grouped.items():
        truth = truths[key[1]]
        good = np.array([e.tau_hat for e in estimates if e.converged], dtype=float)
        cell = {"trials": len(estimates), "converged": int(good.size)}
        if good.size:
            err = float(np.median(np.abs(good - truth) / truth))
            cell["median_rel_error"], cell["accuracy"] = err, max(0.0, 1.0 - err)
        else:
            cell["median_rel_error"] = cell["accuracy"] = None
        finite = good[np.isfinite(good)]
        cell["precision"] = float(np.std(finite, ddof=1)) if finite.size >= 2 else None
        cells[key] = cell
    return cells


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=STAT_RTOL, abs_tol=1e-15)


def cells_match(cells, expected: dict) -> dict:
    """The program's BenchCells equal the recomputed statistics, per key."""
    problems: dict = {}
    seen = set()
    for cell in cells:
        key = (cell.method, cell.state, cell.duration)
        if key in seen or key not in expected:
            problems.setdefault(key, []).append("unexpected or repeated cell")
            continue
        seen.add(key)
        want = expected[key]
        for field in ("trials", "converged", "accuracy", "median_rel_error", "precision"):
            got = getattr(cell, field)
            if not _close(got, want[field]):
                problems.setdefault(key, []).append(f"{field} {got} != {want[field]}")
    for key in expected.keys() - seen:
        problems.setdefault(key, []).append("cell missing")
    return problems


def _blank(cell: dict) -> bool:
    return cell["converged"] / cell["trials"] < 0.5


def _parse_float(text: str):
    return None if text == "" else float(text)


def results_csv_matches(text: str, expected: dict) -> dict:
    """results.csv has one row per cell, blank exactly where convergence < 0.5."""
    problems: dict = {}
    rows = list(csv.reader(io.StringIO(text)))
    header = ["method", "state", "duration_s", "trials", "converged",
              "accuracy", "median_rel_err", "precision_s"]
    if not rows or rows[0] != header:
        return {key: ["results.csv header wrong"] for key in expected}
    seen = set()
    for row in rows[1:]:
        try:
            key = (row[0], row[1], float(row[2]))
        except (IndexError, ValueError):
            problems.setdefault(("?", "?", 0.0), []).append(f"bad row {row}")
            continue
        if key in seen or key not in expected or len(row) != len(header):
            problems.setdefault(key, []).append(f"unexpected or repeated row {row}")
            continue
        seen.add(key)
        want = expected[key]
        if int(row[3]) != want["trials"] or int(row[4]) != want["converged"]:
            problems.setdefault(key, []).append(f"counts {row[3:5]} != {want}")
        if _blank(want):
            if row[5:] != ["", "", ""]:
                problems.setdefault(key, []).append(f"row should be blank: {row}")
            continue
        for column, field in ((5, "accuracy"), (6, "median_rel_error"), (7, "precision")):
            if not _close(_parse_float(row[column]), want[field]):
                problems.setdefault(key, []).append(f"{field} {row[column]} != {want[field]}")
    for key in expected.keys() - seen:
        problems.setdefault(key, []).append("row missing from results.csv")
    return problems


def heatmap_csv_matches(text: str, expected: dict, state: str) -> dict:
    """A heatmap holds each cell's precision, blank where the cell is blank."""
    problems: dict = {}
    keys = [k for k in expected if k[1] == state]
    methods = sorted({k[0] for k in keys})
    durations = sorted({k[2] for k in keys})
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0][0] != "method" or [float(d) for d in rows[0][1:]] != durations:
        return {key: [f"heatmap_{state}.csv header wrong"] for key in keys}
    if [row[0] for row in rows[1:]] != methods:
        return {key: [f"heatmap_{state}.csv rows wrong"] for key in keys}
    for row in rows[1:]:
        for duration, value in zip(durations, row[1:]):
            key = (row[0], state, duration)
            want = expected[key]
            precision = None if _blank(want) else want["precision"]
            if not _close(_parse_float(value), precision):
                problems.setdefault(key, []).append(
                    f"heatmap_{state}.csv has {value!r}, expected {precision}"
                )
        if len(row) != len(durations) + 1:
            problems.setdefault((row[0], state, durations[0]), []).append("ragged row")
    return problems


def ridge_normal_equations(model, corpus) -> list[str]:
    """The weights solve (X^T X + Lambda) w = X^T y, bias unpenalised."""
    X = corpus.matrix()
    reg = np.full(X.shape[1], model.ridge_lambda)
    reg[0] = 0.0
    lhs = X.T @ (X @ model.weights) + reg * model.weights
    rhs = X.T @ corpus.labels
    residual = float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
    if not residual <= RIDGE_RTOL:
        return [f"ridge normal equations off by {residual:.3e} (relative)"]
    return []


def lm_stalled(est) -> bool:
    """LM spent all its iterations: its step tests run only after an accepted
    step, so a fit that sits at its minimum, where every step is rejected,
    ends with reason "max_iter" and converged False.  The estimate is then
    checked against the MLE like any other."""
    return not est.converged and est.diagnostics.get("reason") == "max_iter"


def report_matches(report: dict, expected: dict) -> list[str]:
    """The analyze report holds the lifetimes and convergence flags of the
    in-memory pipeline; expected maps each state to its RateEstimate."""
    problems = []
    for state in ("on", "off"):
        for key, want in (
            (f"tau_{state}_s", expected[state].tau_hat),
            (f"{state}_converged", expected[state].converged),
        ):
            got = report.get(key)
            if got != want:
                problems.append(f"report {key} {got!r} != pipeline {want!r}")
    return problems
