"""Acceptance suite.

Runs every acceptance criterion at its stated tolerance and prints one
PASS/FAIL line per criterion.  Stochastic claims are judged on the median
over 100 seeded trials.  Run with `pytest -s tests/test_acceptance.py` to
see the lines as they stream; heatmap/results CSVs land in results/, which
is not tracked because every run rewrites it.

What the data can support.  A default-scenario trace (tau_on = 15 ms,
tau_off = 45 ms) holds about D / (tau_on + tau_off) interior dwells per
state: about 3 at 0.2 s, 31 at 2 s and 312 at 20 s.  No unbiased estimator
that uses only the data has a trial-to-trial std below the Cramer-Rao
floor tau / sqrt(N) for N dwells: 58 % of tau at 0.2 s, 18 % at 2 s and
5.7 % at 20 s.

Criteria 1 and 2 (>= 85 % accuracy from >= 10x less data) are judged
against LM per state.  D_LM is the shortest grid duration at which LM's
median accuracy reaches 0.85: 20 s for tau_on (0.904) and 200 s for
tau_off (0.962).  MFR and GA must reach 0.85 at D_LM / 10, i.e. tau_on at
2 s and tau_off at 20 s.  (At 0.2 s the floor is 58 % of tau; the
closed-form MLE, the mean dwell and the GA's heuristic seed all score only
0.64-0.65 there.)

Criterion 4 (>= 20x precision, pass floor 10x) compares LM and GA at the
shortest duration where neither cell is blank in the precision heatmap
(BenchCell.blank), which is 2 s.  At 20 s it could not pass: the floor is
0.85 ms (on) and 2.55 ms (off) against LM's 2.70 ms and 9.60 ms, so no
unbiased estimator can be more than 3.2x (on) or 3.8x (off) more precise
than LM there.  GA's std must also stay >= 0.8x the floor at the compared
duration (100-trial sample std has about 7 % standard error), so an
estimator that ignores its data cannot win the ratio.

Criteria 1 and 2 still fail, at their stated threshold:

- GA scores 0.845 for tau_on at 2 s (tau_off at 20 s: 0.935).  On the same
  traces the heuristic seed alone scores 0.854.  84/100 runs accept nothing
  and return the seed, blended with its value rounded to a bin.  In the
  16/100 that accept evolved estimates, accuracy falls from the seed's
  0.916 to 0.852, because `extract_tau`'s candidates run high (median 1.19
  tau_on over the 89 logged).  On an exact exponential its documented
  formula returns tau * D_M / (ln 2 * (D_max - D_M)), which is right only
  when D_max ~ 2.44 D_M.  PAPER.md does not give the conversion and
  tests/test_ga.py::TestExtractTau pins the formula, so it stays.
- MFR scores 0.715 for tau_on at 2 s and 0.558 for tau_off at 20 s.  With
  DEFAULT_RIDGE_LAMBDA = 3000 and 20 training traces the predictions
  collapse to the corpus prior: their spread (0.47 ms and 0.42 ms) is 5-6x
  below the floor (2.60 ms and 2.46 ms), so the output does not follow the
  data.  At 0.2 s every prediction equals the label mean, 15.4-15.9 ms,
  which matches tau_on = 15 ms by coincidence.  Leave-one-out lambda,
  density-normalised features, a 100-trace corpus and a 1-100 ms label
  range each stay below 0.85 in at least one of the two cells (best: 0.846
  and 0.861).
"""

import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from blinkfit import bench, ga, mfr
from blinkfit.bench import default_scenario, train_mfr_models
from blinkfit.dwell import (
    DwellHistogram,
    StateSequence,
    auto_threshold,
    binarize,
    dwell_histogram,
    empirical_density,
)
from blinkfit.emitter import EmitterModel, _draw_dwells, generate_trace
from blinkfit.errors import BlinkfitError
from blinkfit.ga import Clustering, GaConfig, extract_tau, kmeans_cluster, run_ga, silhouette
from blinkfit.levmar import fit_exponential
from blinkfit.mfr import TrainingSet, train_model

TRIALS = 100
SCENARIO = default_scenario(trials_per_cell=TRIALS, base_seed=1234)
WORKERS = 2
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
LN2 = math.log(2.0)
# Trace durations the claims are judged on, one decade apart.
GRID = (0.2, 2.0, 20.0, 200.0)
STATES = (("on", SCENARIO.tau_on), ("off", SCENARIO.tau_off))

_cache = {}


def _check(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _estimates(method, duration, models=None):
    """All per-state estimates for one (method, duration) cell, cached."""
    key = (method, duration)
    if key not in _cache:
        scenario = replace(SCENARIO, durations=(duration,))
        raw = bench.collect_trials(scenario, (method,), models=models, workers=WORKERS)
        _cache[key] = {
            state: [raw[(method, duration, i)][state] for i in range(TRIALS)]
            for state in ("on", "off")
        }
    return _cache[key]


def _median_accuracy(estimates, truth):
    accs = [
        bench.accuracy(e.tau_hat, truth) if e.converged else 0.0 for e in estimates
    ]
    return float(np.median(accs))


def _cell(method, duration, state):
    """The bench's aggregate of one cached (method, duration, state) cell."""
    estimates = _estimates(method, duration)[state]
    return bench.cell_statistics(method, state, duration, estimates, dict(STATES)[state])


def _crlb(truth, duration):
    """Cramer-Rao floor tau / sqrt(N), N the expected dwell count per state."""
    return truth / math.sqrt(duration / (SCENARIO.tau_on + SCENARIO.tau_off))


def _ms(seconds):
    return "n/a" if seconds is None else f"{seconds * 1e3:.2f}ms"


def _check_data_efficiency(name, method, *, models=None, why):
    """Per state, `method` must reach 0.85 with a tenth of the data LM needs.

    D_LM is the shortest grid duration at which LM's median accuracy
    reaches 0.85; `method` is judged at D_LM / 10.
    """
    ok = True
    report = []
    for state, truth in STATES:
        acc_lm = {d: _median_accuracy(_estimates("lm", d)[state], truth) for d in GRID}
        d_lm = next((d for d in GRID if acc_lm[d] >= 0.85), None)
        short = next(
            (d for d in GRID if d_lm is not None and math.isclose(d, d_lm / 10)), None
        )
        if short is None:
            ok = False
            report.append(
                f"tau_{state}: LM never reaches 0.85 on {GRID}"
                if d_lm is None
                else f"tau_{state}: LM reaches 0.85 at {d_lm:g}s, no grid duration 10x shorter"
            )
            continue
        acc = _median_accuracy(_estimates(method, short, models)[state], truth)
        ok &= acc >= 0.85
        report.append(
            f"tau_{state}: D_LM = {d_lm:g}s (LM {acc_lm[d_lm]:.3f}), "
            f"{method.upper()}@{short:g}s = {acc:.3f} (need >= 0.85), "
            f"std {_ms(_cell(method, short, state).precision)} "
            f"vs floor {_ms(_crlb(truth, short))}"
        )
    _check(name, ok, "; ".join(report) + ("" if ok else f" -- {why}"))


@pytest.fixture(scope="module")
def mfr_models():
    return train_mfr_models(replace(SCENARIO, durations=(0.2, 2.0, 20.0)))


class TestCriterion1MfrDataEfficiency:
    def test_mfr_accuracy_on_short_traces(self, mfr_models):
        _check_data_efficiency(
            "criterion 1 (MFR data efficiency)",
            "mfr",
            models=mfr_models,
            why="MFR predictions collapse to the ridge prior of its training corpus",
        )


class TestCriterion2GaDataEfficiency:
    def test_ga_accuracy_on_short_traces(self):
        _check_data_efficiency(
            "criterion 2 (GA data efficiency)",
            "ga",
            why="extract_tau's candidates run high (see module docstring)",
        )


class TestCriterion3LmBaseline:
    def test_lm_short_trace_failure_and_long_trace_recovery(self):
        short = _estimates("lm", 2.0)["off"]
        failures = sum(
            1
            for e in short
            if not e.converged or abs(e.tau_hat - SCENARIO.tau_off) / SCENARIO.tau_off > 0.5
        )
        med_err = {state: _cell("lm", 200.0, state).median_rel_error for state, _ in STATES}
        ok = (
            failures >= TRIALS // 2
            and med_err["on"] <= 0.10
            and med_err["off"] <= 0.10
        )
        _check(
            "criterion 3 (L-M baseline behavior)",
            ok,
            f"tau_off@2s failed-or->50%-error in {failures}/{TRIALS} trials "
            f"(need >= {TRIALS // 2}); 200s median rel err on = {med_err['on']:.3f}, "
            f"off = {med_err['off']:.3f} (need <= 0.10)",
        )


class TestCriterion4PrecisionRatio:
    def test_precision_ratio_at_qualifying_duration(self):
        report = []
        ok = True
        for state, truth in STATES:
            qualifying = next(
                (
                    d
                    for d in GRID
                    if not _cell("lm", d, state).blank and not _cell("ga", d, state).blank
                ),
                None,
            )
            assert qualifying is not None, f"LM or GA is blank for {state} at every duration"
            prec_lm = _cell("lm", qualifying, state).precision
            prec_ga = _cell("ga", qualifying, state).precision
            floor = _crlb(truth, qualifying)
            ok &= prec_ga <= prec_lm / 10.0 and prec_ga >= 0.8 * floor
            report.append(
                f"{state}@{qualifying:g}s LM {_ms(prec_lm)} / GA {_ms(prec_ga)} "
                f"= {prec_lm / prec_ga:.1f}x (pass floor 10x; nominal target 20-40x; "
                f"no unbiased estimator beats {prec_lm / floor:.1f}x here); "
                f"GA std vs floor {_ms(floor)} = {prec_ga / floor:.2f} (need >= 0.8)"
            )
        self._emit_heatmaps()
        _check("criterion 4 (precision ratio)", ok, "; ".join(report))

    def _emit_heatmaps(self):
        """Cells from the cached trials, written for inspection."""
        cells = [
            _cell(method, duration, state)
            for method in ("lm", "mfr", "ga")
            for duration in GRID
            if (method, duration) in _cache
            for state, _ in STATES
        ]
        RESULTS_DIR.mkdir(exist_ok=True)
        bench.write_results_csv(cells, RESULTS_DIR / "acceptance_results.csv")
        bench.write_heatmap_csv(cells, "on", RESULTS_DIR / "acceptance_heatmap_on.csv")
        bench.write_heatmap_csv(cells, "off", RESULTS_DIR / "acceptance_heatmap_off.csv")


class TestCriterion5SimulatorFidelity:
    def test_exponential_sampler_mean(self):
        # the bulk dwell draw generate_trace uses, both means at 15 ms
        rng = np.random.default_rng(2024)
        samples = _draw_dwells(rng, 15e-3, 15e-3, 1.01e6 * 15e-3)[: 10**6]
        rel = abs(samples.mean() - 15e-3) / 15e-3
        _check(
            "criterion 5a (sampler fidelity)",
            rel < 0.003,
            f"1e6-sample mean off by {rel * 100:.4f}% (need < 0.3%)",
        )

    def test_stationary_fraction(self):
        model = EmitterModel(tau_on=15e-3, tau_off=45e-3)
        trace = generate_trace(model, 600.0, 1e-3, None, rng=31)
        frac = float(trace.hidden_states.mean())
        target = 0.25
        _check(
            "criterion 5b (stationary occupancy)",
            abs(frac - target) / target < 0.01,
            f"600s on-fraction {frac:.4f} vs {target} "
            f"({abs(frac - target) / target * 100:.2f}%, need < 1%)",
        )


def brute_force_two_partition(points):
    pts = np.asarray(points, dtype=float)
    best = None
    for assignment in itertools.product([0, 1], repeat=len(pts)):
        if len(set(assignment)) < 2:
            continue
        phi = 0.0
        for j in (0, 1):
            members = pts[np.array(assignment) == j]
            phi += ((members - members.mean(axis=0)) ** 2).sum()
        best = phi if best is None else min(best, phi)
    return best


class TestCriterion6OracleEquivalences:
    def test_kmeans_matches_brute_force(self):
        worst = 0.0
        for seed in range(100):
            pts = np.random.default_rng(1000 + seed).uniform(0.0, 10.0, size=(4, 2))
            rng = np.random.default_rng(seed)
            # lowest potential of 8 runs drawn from one generator
            result = min(
                (kmeans_cluster(pts, 2, rng) for _ in range(8)), key=lambda c: c.potential
            )
            worst = max(worst, abs(result.potential - brute_force_two_partition(pts)))
        _check(
            "criterion 6a (kmeans vs brute force)",
            worst <= 1e-9,
            f"worst potential gap over 100 four-point instances = {worst:.2e}",
        )

    def test_silhouette_fixtures(self):
        fixtures_ok = True
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
        rep = silhouette(
            Clustering(2, np.array([[0.5, 0.0], [10.5, 0.0]]), np.array([0, 0, 1, 1]), 1.0, points=pts)
        )
        fixtures_ok &= abs(rep[0] - (1 - 1 / 10.5)) < 1e-12
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        rep = silhouette(
            Clustering(2, np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([0, 0, 1]), 1.0, points=pts)
        )
        fixtures_ok &= rep[0] == 0.0 and rep[2] == 0.0
        pts = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 1.0], [2.0, 1.0]])
        rep = silhouette(
            Clustering(2, np.array([[2.0, 0.0], [1.5, 1.0]]), np.array([0, 0, 1, 1]), 1.0, points=pts)
        )
        b0 = (math.sqrt(2.0) + math.sqrt(5.0)) / 2.0
        fixtures_ok &= abs(rep[0] - (b0 / 4.0 - 1.0)) < 1e-12
        _check(
            "criterion 6b (silhouette fixtures)",
            bool(fixtures_ok),
            "three hand-computed fixtures reproduced",
        )

    def test_extract_tau_on_exact_exponentials(self):
        errs = []
        for tau_ms in (5.0, 15.0, 45.0):
            durations = np.arange(1, int(round(tau_ms)) + 1)
            counts = np.rint(100.0 * np.exp(-durations / tau_ms))
            est = extract_tau(np.column_stack([durations, counts]), 1e-3)
            errs.append(abs(est - tau_ms * 1e-3) / (tau_ms * 1e-3))
        _check(
            "criterion 6c (decay extraction oracle)",
            max(errs) <= 0.2,
            "errors at 5/15/45 ms = "
            + ", ".join(f"{e * 100:.1f}%" for e in errs)
            + " (need <= 20%)",
        )

    def test_mfr_recovers_planted_weights(self):
        rng = np.random.default_rng(0)
        X = np.ones((10, 5))
        for row in X:
            row[1:] = rng.integers(0, 9, size=4)
        corpus = TrainingSet(X, 5.0 + 2.0 * X[:, 1])
        model = train_model(corpus, bin_width=1e-3, trained_duration=1.0, ridge_lambda=0.0)
        gap = max(
            abs(model.weights[0] - 5.0),
            abs(model.weights[1] - 2.0),
            float(np.abs(model.weights[2:]).max()),
        )
        _check(
            "criterion 6d (MFR planted weights)",
            gap <= 1e-6,
            f"max weight error = {gap:.2e} (need <= 1e-6)",
        )

    def test_lm_recovers_noiseless_parameters(self):
        t = np.arange(1, 101)
        y0, amp, tau = 1e-3, 0.066, 15e-3
        from blinkfit.dwell import EmpiricalDensity

        density = EmpiricalDensity("on", 1e-3, t, y0 + amp * np.exp(-t * 1e-3 / tau))
        est = fit_exponential(density)
        rel = max(
            abs(est.diagnostics["y0"] - y0) / y0,
            abs(est.diagnostics["A"] - amp) / amp,
            abs(est.tau_hat - tau) / tau,
        )
        _check(
            "criterion 6e (L-M noiseless recovery)",
            rel <= 1e-6,
            f"max relative parameter error = {rel:.2e} (need <= 1e-6)",
        )


class TestCriterion7Determinism:
    def _hist(self):
        model = EmitterModel(tau_on=15e-3, tau_off=45e-3)
        trace = generate_trace(model, 20.0, 1e-3, "poisson", rng=7)
        return dwell_histogram(binarize(trace, auto_threshold(trace)))[0]

    def test_estimators_are_deterministic(self, mfr_models):
        hist = self._hist()
        rows = []
        lm = [fit_exponential(empirical_density(hist)) for _ in range(2)]
        rows.append(("lm", lm[0].tau_hat == lm[1].tau_hat))
        mdl = mfr_models[2.0]["on"]
        mf = [mfr.estimate(mdl, hist) for _ in range(2)]
        rows.append(("mfr", mf[0].tau_hat == mf[1].tau_hat))
        cfg = GaConfig(tau_range=(1e-3, 100e-3), max_iterations=150)
        gas = [run_ga(hist, cfg, rng=11) for _ in range(2)]
        rows.append(
            (
                "ga",
                gas[0].tau_hat == gas[1].tau_hat
                and gas[0].diagnostics["estimate_log"] == gas[1].diagnostics["estimate_log"],
            )
        )
        ok = all(flag for _, flag in rows)
        _check(
            "criterion 7a (estimator determinism)",
            ok,
            ", ".join(f"{name}: {'same' if flag else 'DIFFERS'}" for name, flag in rows),
        )

    def test_sweep_is_byte_identical(self, tmp_path, mfr_models):
        scenario = replace(SCENARIO, durations=(0.2, 2.0), trials_per_cell=3)
        blobs = []
        for run_dir in ("r1", "r2"):
            out = tmp_path / run_dir
            out.mkdir()
            cells = bench.sweep(scenario, ("lm", "mfr", "ga"), models=mfr_models)
            bench.write_results_csv(cells, out / "results.csv")
            bench.write_heatmap_csv(cells, "on", out / "heatmap_on.csv")
            bench.write_heatmap_csv(cells, "off", out / "heatmap_off.csv")
            blobs.append(
                tuple((out / f).read_bytes() for f in ("results.csv", "heatmap_on.csv", "heatmap_off.csv"))
            )
        _check(
            "criterion 7b (sweep determinism)",
            blobs[0] == blobs[1],
            "two seeded sweeps wrote byte-identical CSVs"
            if blobs[0] == blobs[1]
            else "sweep outputs differ between runs",
        )


class TestCriterion8Invariants:
    def test_invariant_suite(self):
        failures = []

        # kmeans potential is non-increasing across Lloyd iterations
        for seed in range(30):
            pts = np.random.default_rng(seed).normal(size=(25, 2))
            result = kmeans_cluster(pts, 3, np.random.default_rng(seed + 1))
            phis = result.phi_history
            if not all(b <= a + 1e-9 for a, b in zip(phis, phis[1:])):
                failures.append(f"phi increased (seed {seed})")
                break

        # silhouette stays in [-1, 1]
        for seed in range(200):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(4, 16))
            k = int(rng.integers(2, 4))
            labels = rng.integers(0, k, size=m)
            for j in range(k):
                labels[j % m] = j
            rep = silhouette(
                Clustering(k, np.zeros((k, 2)), labels, 0.0, points=rng.normal(size=(m, 2)))
            )
            if rep.min() < -1 - 1e-12 or rep.max() > 1 + 1e-12:
                failures.append(f"silhouette out of range (seed {seed})")
                break

        # empirical densities sum to one
        for seed in range(50):
            rng = np.random.default_rng(seed)
            size = int(rng.integers(1, 30))
            hist = DwellHistogram(
                "on",
                1e-3,
                np.arange(1, size + 1),
                rng.integers(1, 40, size=size),
            )
            if abs(empirical_density(hist).densities.sum() - 1.0) > 1e-12:
                failures.append(f"density sum != 1 (seed {seed})")
                break

        # dwell bookkeeping conserves the trace duration
        for seed in range(50):
            rng = np.random.default_rng(seed)
            states = rng.random(int(rng.integers(3, 400))) < 0.4
            seq = StateSequence(1e-3, states)
            change = np.flatnonzero(states[1:] != states[:-1])
            starts = np.concatenate([[0], change + 1])
            ends = np.concatenate([change + 1, [states.size]])
            boundary = (ends[0] - starts[0]) + (
                (ends[-1] - starts[-1]) if starts.size > 1 else 0
            )
            try:
                h_on, h_off = dwell_histogram(seq)
                interior = sum(
                    int((h.indices * h.occurrences).sum()) for h in (h_on, h_off)
                )
            except BlinkfitError:
                interior = 0
                boundary = states.size
            if interior + boundary != states.size:
                failures.append(f"duration bookkeeping broken (seed {seed})")
                break

        # GA estimates never leave the mandated range
        model = EmitterModel(tau_on=15e-3, tau_off=45e-3)
        cfg = GaConfig(tau_range=(20e-3, 30e-3), max_iterations=60)
        for seed in range(3):
            trace = generate_trace(model, 5.0, 1e-3, "poisson", rng=seed)
            hist = dwell_histogram(binarize(trace, auto_threshold(trace)))[0]
            est = run_ga(hist, cfg, rng=seed)
            if not 20e-3 <= est.tau_hat <= 30e-3:
                failures.append(f"GA estimate outside range (seed {seed})")
                break

        _check(
            "criterion 8 (invariant suite)",
            not failures,
            "all invariant families hold" if not failures else "; ".join(failures),
        )


class TestGa200sExample:
    def test_long_trace_median_error(self):
        """The 200 s reference point: median error within 15% over 50 seeds."""
        scenario = replace(SCENARIO, durations=(200.0,), trials_per_cell=50)
        raw = bench.collect_trials(scenario, ("ga",), workers=WORKERS)
        estimates = [raw[("ga", 200.0, i)]["on"] for i in range(50)]
        cell = bench.cell_statistics("ga", "on", 200.0, estimates, SCENARIO.tau_on)
        # a failed (non-converged) trial fails the example
        med = cell.median_rel_error if cell.converged == 50 else float("nan")
        _check(
            "GA 200s reference example",
            med <= 0.15,
            f"median tau_on error over 50 seeds = {med * 100:.1f}% (need <= 15%)",
        )
