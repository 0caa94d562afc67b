from dataclasses import replace

import numpy as np
import pytest

from blinkfit import bench
from blinkfit.bench import (
    BenchCell,
    Scenario,
    accuracy,
    analyze_trace,
    collect_trials,
    default_scenario,
    fig2_scenario,
    precision,
    run_trial,
    stable_seed,
    sweep,
    train_mfr_models,
    write_heatmap_csv,
    write_results_csv,
)
from blinkfit.emitter import EmitterModel, generate_trace


@pytest.fixture(scope="module")
def small_scenario():
    return Scenario(durations=(2.0, 20.0), trials_per_cell=3, base_seed=99)


@pytest.fixture(scope="module")
def small_models(small_scenario):
    return train_mfr_models(small_scenario, count=5)


class TestAccuracyPrecision:
    def test_exact_hit(self):
        assert accuracy(15e-3, 15e-3) == 1.0

    def test_85_percent_point(self):
        assert accuracy(12.75e-3, 15e-3) == pytest.approx(0.85)

    def test_floored_at_zero(self):
        assert accuracy(100e-3, 15e-3) == 0.0

    def test_zero_variance(self):
        assert precision([10e-3, 10e-3, 10e-3]) == 0.0

    def test_single_sample_undefined(self):
        assert precision([10e-3]) is None


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed(1, 2.0, "lm", 3) == stable_seed(1, 2.0, "lm", 3)

    def test_sensitive_to_parts(self):
        seeds = {
            stable_seed(1, 2.0, "lm", 3),
            stable_seed(1, 2.0, "lm", 4),
            stable_seed(1, 2.0, "ga", 3),
            stable_seed(1, 20.0, "lm", 3),
            stable_seed(2, 2.0, "lm", 3),
        }
        assert len(seeds) == 5


class TestRunTrial:
    def test_lm_long_trace(self):
        scenario = default_scenario()
        result = run_trial(scenario, 200.0, "lm", 0)
        for state, truth in (("on", 15e-3), ("off", 45e-3)):
            est = result[state]
            assert est.converged
            assert abs(est.tau_hat - truth) / truth < 0.1

    def test_determinism(self, small_scenario):
        a = run_trial(small_scenario, 2.0, "lm", 1)
        b = run_trial(small_scenario, 2.0, "lm", 1)
        for state in ("on", "off"):
            assert a[state].tau_hat == b[state].tau_hat or (
                np.isnan(a[state].tau_hat) and np.isnan(b[state].tau_hat)
            )
            assert a[state].converged == b[state].converged

    def test_lm_short_trace_mostly_fails(self):
        scenario = default_scenario()
        bad = 0
        n = 20
        for trial in range(n):
            est = run_trial(scenario, 2.0, "lm", trial)["off"]
            if not est.converged or abs(est.tau_hat - 45e-3) / 45e-3 > 0.5:
                bad += 1
        assert bad >= n // 2

    def test_mfr_requires_model(self, small_scenario):
        with pytest.raises(ValueError):
            run_trial(small_scenario, 2.0, "mfr", 0, models={})

    def test_unknown_method(self, small_scenario):
        with pytest.raises(ValueError):
            run_trial(small_scenario, 2.0, "fft", 0)

    def test_failures_are_data(self):

        scenario = Scenario(durations=(0.2,), trials_per_cell=1)
        result = run_trial(scenario, 0.2, "lm", 0)
        for est in result.values():
            assert est.converged in (True, False)


class TestAnalyzeTrace:
    @pytest.fixture
    def trace(self, monkeypatch):
        def refuse(trace):
            raise AssertionError("thresholded a trace it should have refused")

        monkeypatch.setattr(bench, "auto_threshold", refuse)
        return generate_trace(EmitterModel(15e-3, 45e-3), 2.0, 1e-3, "poisson", rng=1)

    def test_unknown_method_refused_before_thresholding(self, trace):
        with pytest.raises(ValueError, match="unknown method 'LM'"):
            analyze_trace(trace, "LM", 1)

    def test_mfr_without_models_refused_before_thresholding(self, trace):
        with pytest.raises(ValueError, match="needs models"):
            analyze_trace(trace, "mfr", 1)


class TestSweep:
    def test_grid_shape(self, small_scenario, small_models):
        cells = sweep(
            replace(small_scenario, trials_per_cell=2), ("lm", "mfr"), models=small_models
        )
        assert len(cells) == 2 * 2 * 2  # methods x durations x states
        keys = {(c.method, c.state, c.duration) for c in cells}
        assert len(keys) == len(cells)

    def test_single_trial_precision_undefined(self, small_scenario):
        cells = sweep(replace(small_scenario, trials_per_cell=1), ("lm",))
        assert all(c.precision is None for c in cells)

    def test_order_invariance_and_csv_determinism(self, tmp_path, small_scenario):
        cells_a = sweep(small_scenario, ("lm",))
        cells_b = sweep(small_scenario, ("lm",))
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(cells_a, pa)
        write_results_csv(cells_b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_blank_cell_predicate(self):
        cell = BenchCell(
            method="lm",
            state="off",
            duration=0.2,
            trials=10,
            converged=3,
            median_rel_error=None,
            accuracy=None,
            precision=None,
        )
        assert cell.convergence_rate == 0.3
        assert cell.blank

    def test_heatmap_csv_layout(self, tmp_path, small_scenario):
        cells = sweep(replace(small_scenario, trials_per_cell=2), ("lm",))
        path = tmp_path / "heat_on.csv"
        write_heatmap_csv(cells, "on", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "method,2.0,20.0"
        assert lines[1].startswith("lm,")

    def test_collect_trials_parallel_matches_serial(self, small_scenario):
        scenario = replace(small_scenario, trials_per_cell=2)
        serial = collect_trials(scenario, ("lm",), workers=1)
        parallel = collect_trials(scenario, ("lm",), workers=2)
        assert serial.keys() == parallel.keys()
        for key in serial:
            for state in ("on", "off"):
                a, b = serial[key][state], parallel[key][state]
                assert (a.tau_hat == b.tau_hat) or (
                    np.isnan(a.tau_hat) and np.isnan(b.tau_hat)
                )


class TestErrorVsDuration:
    @staticmethod
    def median_errors(method, durations, trials):
        scenario = Scenario(durations=durations, trials_per_cell=trials, base_seed=77)
        out = []
        for duration in durations:
            errs = []
            for i in range(trials):
                est = run_trial(scenario, duration, method, i)["on"]
                if est.converged:
                    errs.append(abs(est.tau_hat - 15e-3) / 15e-3)
            out.append(np.median(errs) if errs else np.inf)
        return out

    @pytest.mark.parametrize("method,trials", [("lm", 20), ("ga", 10)])
    def test_error_non_increasing_with_one_inversion(self, method, trials):
        errs = self.median_errors(method, (0.2, 2.0, 20.0), trials)
        inversions = sum(1 for a, b in zip(errs, errs[1:]) if b > a * 1.05)
        assert inversions <= 1, f"{method} errors {errs}"


class TestScenario:
    def test_default_durations(self):
        assert default_scenario().durations == (0.2, 2.0, 20.0, 200.0, 1000.0)

    def test_fig2_preset(self):
        scenario = fig2_scenario()
        assert scenario.tau_on == pytest.approx(4.8e-3)
        assert scenario.tau_off == pytest.approx(6.7e-3)

    def test_fig2_preset_is_recoverable(self):
        # fast blinking needs bins well below the lifetimes, otherwise
        # sub-bin dwells are censored into their neighbours
        scenario = fig2_scenario(
            durations=(20.0,), trials_per_cell=1, bin_width=0.25e-3
        )
        result = run_trial(scenario, 20.0, "lm", 0)
        assert result["on"].converged and result["off"].converged
        assert result["on"].tau_hat == pytest.approx(4.8e-3, rel=0.2)
        assert result["off"].tau_hat == pytest.approx(6.7e-3, rel=0.2)

    def test_unsorted_durations_rejected(self):
        with pytest.raises(ValueError):
            Scenario(durations=(2.0, 0.2))
