import json
import math

import numpy as np
import pytest

from blinkfit.dwell import binarize
from blinkfit.emitter import (
    EmitterModel,
    generate_trace,
    read_trace,
    sample_dwell,
    write_trace,
)


def make_model(tau_on=15e-3, tau_off=45e-3):
    return EmitterModel(tau_on=tau_on, tau_off=tau_off)


class TestSampleDwell:
    def test_exponential_mean(self):
        # law of large numbers: sample mean within 0.05 ms of 15 ms
        model = make_model()
        rng = np.random.default_rng(123)
        samples = np.array([sample_dwell("on", model, rng) for _ in range(10**6)])
        assert abs(samples.mean() - 15e-3) < 0.05e-3

    def test_exponential_variance(self):
        model = make_model()
        rng = np.random.default_rng(456)
        samples = np.array([sample_dwell("on", model, rng) for _ in range(10**6)])
        assert samples.var() == pytest.approx((15e-3) ** 2, rel=0.01)

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError):
            sample_dwell("dark", make_model(), np.random.default_rng(0))


class TestGenerateTrace:
    def test_length_and_stationary_fraction(self):
        trace = generate_trace(make_model(), 200.0, 1e-3, "poisson", rng=11)
        assert len(trace) == 200_000
        on_fraction = trace.hidden_states.mean()
        assert abs(on_fraction - 0.25) < 0.01

    def test_single_bin(self):
        trace = generate_trace(make_model(), 1e-3, 1e-3, None, rng=1)
        assert len(trace) == 1

    def test_seed_determinism(self):
        a = generate_trace(make_model(), 5.0, 1e-3, "poisson", rng=99)
        b = generate_trace(make_model(), 5.0, 1e-3, "poisson", rng=99)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_truth_recorded(self):
        trace = generate_trace(make_model(), 1.0, 1e-3, None, rng=3)
        assert trace.truth == (15e-3, 45e-3)

    def test_noiseless_binarization_recovers_hidden_states(self):
        trace = generate_trace(make_model(), 30.0, 1e-3, None, rng=7)
        seq = binarize(trace, 55.0)
        np.testing.assert_array_equal(seq.states, trace.hidden_states)

    def test_empirical_dwell_mean_matches_tau(self):
        # >= 1e5 dwells, empirical mean within 3 standard errors
        model = make_model(tau_on=2e-3, tau_off=2e-3)
        rng = np.random.default_rng(22)
        samples = np.array([sample_dwell("on", model, rng) for _ in range(10**5)])
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - 2e-3) < 3 * se

    def test_time_fraction_matches_stationary_occupancy(self):
        # trace much longer than 1000 cycles; on-time within 3 sigma binomial-ish bound
        model = make_model()
        trace = generate_trace(model, 100.0, 1e-3, None, rng=5)
        frac = trace.hidden_states.mean()
        # conservative 3-sigma band from the renewal variance of a two-state process
        assert abs(frac - 0.25) < 0.015

    def test_duration_below_bin_rejected(self):
        with pytest.raises(ValueError):
            generate_trace(make_model(), 0.5e-3, 1e-3, None, rng=1)

    def test_bad_noise_mode_rejected(self):
        with pytest.raises(ValueError):
            generate_trace(make_model(), 1.0, 1e-3, "gaussian", rng=1)


class TestModelValidation:
    def test_positive_lifetimes_required(self):
        with pytest.raises(ValueError):
            EmitterModel(tau_on=0.0, tau_off=1.0)


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        trace = generate_trace(make_model(), 0.5, 1e-3, "poisson", rng=17)
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        back = read_trace(path)
        np.testing.assert_array_equal(back.counts, trace.counts)
        assert back.bin_width == trace.bin_width
        assert back.truth == trace.truth
        assert back.seed == 17

    def test_write_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace(generate_trace(make_model(), 0.2, 1e-3, "poisson", rng=4), a)
        write_trace(generate_trace(make_model(), 0.2, 1e-3, "poisson", rng=4), b)
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,counts\n0.0,12\n0.001,oops\n")
        path.with_suffix(".json").write_text('{"bin_width_s": 0.001}')
        with pytest.raises(ValueError, match="line 3"):
            read_trace(path)

    def test_non_finite_count_reports_line(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("t_s,counts\n0.0,12\n\n0.001,nan\n0.002,3\n")
        path.with_suffix(".json").write_text('{"bin_width_s": 0.001}')
        with pytest.raises(ValueError, match="non-finite count at line 4"):
            read_trace(path)

    @pytest.mark.parametrize(
        "rows, bin_width, line",
        [
            ("0.0,1\n0.001,2\n0.003,3\n", 0.001, 4),  # a gap: last row is not row 2
            ("0.0,1\n0.001,2\n0.002,3\n", 0.002, 4),  # sidecar bin width does not match
            ("0.005,1\n0.006,2\n0.007,3\n", 0.001, 2),  # time axis does not start at 0
        ],
        ids=["gap", "sidecar-bin-width", "offset-start"],
    )
    def test_time_axis_must_match_sidecar(self, tmp_path, rows, bin_width, line):
        path = tmp_path / "gapped.csv"
        path.write_text("t_s,counts\n" + rows)
        path.with_suffix(".json").write_text(json.dumps({"bin_width_s": bin_width}))
        with pytest.raises(ValueError, match=f"line {line} "):
            read_trace(path)

    @pytest.mark.parametrize(
        "sidecar, message",
        [
            ({"tau_on_s": 0.015}, "lacks bin_width_s"),
            ([0.001], "must be a JSON object"),
            ({"bin_width_s": "0.001"}, "bin_width_s must be a number"),
            ({"bin_width_s": 0}, "bin_width_s must be positive"),
            ('{"bin_width_s": NaN}', "bin_width_s must be positive"),
            ('{"bin_width_s": 0\n', "not valid JSON"),
        ],
        ids=[
            "missing-bin-width",
            "list",
            "string-bin-width",
            "zero-bin-width",
            "nan-bin-width",
            "malformed",
        ],
    )
    def test_bad_sidecar_named(self, tmp_path, sidecar, message):
        path = tmp_path / "trace.csv"
        path.write_text("t_s,counts\n0.0,1\n0.001,2\n")
        text = sidecar if isinstance(sidecar, str) else json.dumps(sidecar)
        path.with_suffix(".json").write_text(text)
        with pytest.raises(ValueError, match=message) as info:
            read_trace(path)
        assert str(path.with_suffix(".json")) in str(info.value)
