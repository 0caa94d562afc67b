import hashlib
import json
import math
import re

import numpy as np
import pytest

from blinkfit.dwell import binarize
from blinkfit.emitter import (
    DEFAULT_MEAN_OFF_COUNTS,
    DEFAULT_MEAN_ON_COUNTS,
    BlinkTrace,
    EmitterModel,
    _draw_dwells,
    generate_trace,
    read_trace,
    write_trace,
)


def make_model(tau_on=15e-3, tau_off=45e-3):
    return EmitterModel(tau_on=tau_on, tau_off=tau_off)


def draw_exponentials(tau, size, seed):
    """The first size dwells of one bulk draw with both means equal to tau."""
    dwells = _draw_dwells(np.random.default_rng(seed), tau, tau, 1.01 * size * tau)
    assert dwells.size > size
    return dwells[:size]


class TestSampleDwell:
    def test_exponential_mean(self):
        # law of large numbers: sample mean within 0.05 ms of 15 ms
        samples = draw_exponentials(15e-3, 10**6, 123)
        assert abs(samples.mean() - 15e-3) < 0.05e-3

    def test_exponential_variance(self):
        samples = draw_exponentials(15e-3, 10**6, 456)
        assert samples.var() == pytest.approx((15e-3) ** 2, rel=0.01)


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
        samples = draw_exponentials(2e-3, 10**5, 22)
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

    @pytest.mark.parametrize(
        "duration, bin_width", [(math.nan, 1e-3), (math.inf, 1e-3), (1.0, math.nan)]
    )
    def test_non_finite_duration_or_bin_rejected(self, duration, bin_width):
        # an infinite duration used to overflow in int(round(duration / bin_width))
        with pytest.raises(ValueError, match="positive and finite"):
            generate_trace(make_model(), duration, bin_width, None, rng=1)

    def test_bad_noise_mode_rejected(self):
        with pytest.raises(ValueError):
            generate_trace(make_model(), 1.0, 1e-3, "gaussian", rng=1)


# Lifetime pairs for the pin below; (0.3 ms, 2 ms) puts most on-dwells
# inside one 1 ms bin.
PIN_LIFETIMES = [(15e-3, 45e-3), (4.8e-3, 6.7e-3), (0.3e-3, 2e-3), (50e-3, 8e-3)]


def per_dwell_trace(model, duration, bin_width, photon_noise, generator):
    """The simulator as a loop that draws and bins one dwell at a time.

    This is the reference generate_trace's bulk draw must match bit for bit:
    counts, hidden states and the generator's state afterwards.
    """
    n_bins = int(round(duration / bin_width))
    total = n_bins * bin_width
    on = bool(generator.random() < model.tau_on / (model.tau_on + model.tau_off))
    on_time = np.zeros(n_bins)
    t = 0.0
    while t < total:
        d = float(generator.exponential(model.tau_on if on else model.tau_off))
        a, b = t, min(t + d, total)
        if on and b > a:
            i0 = min(int(a / bin_width), n_bins - 1)
            i1 = min(int(np.ceil(b / bin_width)) - 1, n_bins - 1)
            if i1 <= i0:
                on_time[i0] += b - a
            else:
                on_time[i0] += (i0 + 1) * bin_width - a
                on_time[i1] += b - i1 * bin_width
                on_time[i0 + 1 : i1] += bin_width
        t += d
        on = not on
    on_frac = np.clip(on_time / bin_width, 0.0, 1.0)
    lo, hi = DEFAULT_MEAN_OFF_COUNTS, DEFAULT_MEAN_ON_COUNTS
    expected = lo + (hi - lo) * on_frac
    counts = generator.poisson(expected).astype(float) if photon_noise == "poisson" else expected
    return counts, on_frac > 0.5


def _digest_trace(h, trace):
    h.update(trace.counts.tobytes())
    h.update(trace.hidden_states.tobytes())


class TestGenerateTracePin:
    """Pin generate_trace's output bits and its use of a passed Generator.

    The digests were taken from the per-dwell loop that draws one
    exponential per dwell; any rewrite of the simulator must reproduce
    them exactly.
    """

    @pytest.mark.parametrize("bin_width", [1e-3, 0.7e-3, 0.25e-3])
    def test_matches_per_dwell_loop(self, bin_width):
        # (5 s, 3 s): one dwell usually outlasts the trace
        for tau_on, tau_off in PIN_LIFETIMES + [(5.0, 3.0)]:
            model = make_model(tau_on, tau_off)
            for duration in (1e-3, 2.5e-3, 0.2, 2.0):
                for noise in ("poisson", None):
                    for seed in range(5):
                        bulk, loop = np.random.default_rng(seed), np.random.default_rng(seed)
                        trace = generate_trace(model, duration, bin_width, noise, rng=bulk)
                        counts, hidden = per_dwell_trace(model, duration, bin_width, noise, loop)
                        assert trace.counts.tobytes() == counts.tobytes()
                        assert trace.hidden_states.tobytes() == hidden.tobytes()
                        assert bulk.bit_generator.state == loop.bit_generator.state

    def test_redraw_when_first_draw_falls_short(self):
        # with means of 1 s over 600 s, _draw_dwells first draws 724 dwells;
        # for this seed they sum to less than 600 s, so it draws again
        seed, total = 1725444, 600.0
        assert np.random.default_rng(seed).standard_exponential(724).sum() < total
        bulk, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        dwells = _draw_dwells(bulk, 1.0, 1.0, total)
        expected, t = [], 0.0
        while t < total:
            expected.append(loop.exponential(1.0))
            t += expected[-1]
        assert dwells.tobytes() == np.array(expected).tobytes()
        assert bulk.bit_generator.state == loop.bit_generator.state

    def test_seed_grid_digest(self):
        h = hashlib.sha256()
        for tau_on, tau_off in PIN_LIFETIMES:
            model = make_model(tau_on, tau_off)
            for duration in (0.2, 2.0, 20.0):
                for noise in ("poisson", None):
                    for seed in range(20):
                        _digest_trace(h, generate_trace(model, duration, 1e-3, noise, rng=seed))
        assert h.hexdigest() == (
            "ce0b541398fd2dbf7dd2691d73e1c6b105a362fa9f6c650e576c98af4bcf27d8"
        )

    def test_long_trace_digest(self):
        h = hashlib.sha256()
        _digest_trace(h, generate_trace(make_model(), 1000.0, 1e-3, "poisson", rng=2023))
        assert h.hexdigest() == (
            "148c583087e07494a0c65d1a1e1af792c7b2040cbdcb1c00be12305e68e979ce"
        )

    def test_shared_generator_state_digest(self):
        # one Generator through many traces, as generate_training_corpus
        # passes it: each trace must leave the state where the next expects it
        h = hashlib.sha256()
        for seed in range(5):
            rng = np.random.default_rng(seed)
            for tau_on, tau_off in PIN_LIFETIMES:
                for duration in (0.2, 2.0):
                    trace = generate_trace(make_model(tau_on, tau_off), duration, 1e-3, "poisson", rng=rng)
                    _digest_trace(h, trace)
                    h.update(json.dumps(rng.bit_generator.state, sort_keys=True).encode())
                    assert trace.seed is None
        assert h.hexdigest() == (
            "a995441f182a785feeeb7c362437751d2e67179b2832f96c8d6b5e88ffb553b2"
        )


class TestModelValidation:
    def test_positive_lifetimes_required(self):
        with pytest.raises(ValueError):
            EmitterModel(tau_on=0.0, tau_off=1.0)

    @pytest.mark.parametrize("tau_on, tau_off", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)])
    def test_finite_lifetimes_required(self, tau_on, tau_off):
        with pytest.raises(ValueError, match="positive and finite"):
            EmitterModel(tau_on=tau_on, tau_off=tau_off)


class TestTraceValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_count_rejected(self, bad):
        # a NaN count used to pass, and auto_threshold cast it to 0
        with pytest.raises(ValueError, match=r"counts must be finite, got .* in bin 2"):
            BlinkTrace(bin_width=1e-3, counts=[12.0, 3.0, bad, 40.0, bad])

    @pytest.mark.parametrize("bin_width", [0.0, -1e-3, np.nan, np.inf])
    def test_bin_width_must_be_positive_and_finite(self, bin_width):
        with pytest.raises(ValueError, match="bin_width must be positive and finite"):
            BlinkTrace(bin_width=bin_width, counts=[12.0, 3.0])

    def test_finite_counts_accepted(self):
        trace = BlinkTrace(bin_width=1e-3, counts=[12, 3.5, -1.0, 1e300])
        assert len(trace) == 4

    @pytest.mark.parametrize("bin_width", [np.float64(1e-3), np.float32(0.5), 2])
    def test_bin_width_is_a_python_float(self, bin_width):
        trace = BlinkTrace(bin_width=bin_width, counts=[12.0, 3.0])
        assert type(trace.bin_width) is float
        assert trace.bin_width == float(bin_width)


def _pin_traces():
    """Traces whose written bytes TestTraceIO.test_written_bytes_digest pins.

    They cover Poisson and noise-free counts, counts that are integral
    only in the float sense (-0.0, 2**53, 1e300, -1e20), bin widths whose
    i * bin_width have long reprs, and a trace of 40000 rows with runs of
    integral and fractional counts longer than any chunk write_trace
    formats at once (some chunks all integral, some all fractional, some
    mixed).
    """
    yield generate_trace(make_model(), 20.0, 1e-3, "poisson", rng=5)
    yield generate_trace(make_model(), 20.0, 1e-3, None, rng=6)
    yield BlinkTrace(1e-3, [12, 3.5, -1.0, 1e300, -0.0, 2.0**53, 7.25])
    yield BlinkTrace(1e-3, [7.0, 1e300, -1e20, 2.0**63])  # integral, beyond int64
    yield generate_trace(make_model(1.5, 0.7), 60.0, 0.1, "poisson", rng=7)
    yield generate_trace(make_model(), 2.0, 3e-4, None, rng=8)
    counts = np.arange(40000, dtype=float)
    counts[10000:25000] += 0.25
    counts[33000] = -2.0**60
    yield BlinkTrace(1e-3, counts, truth=(0.01, 0.02), seed=0)


class TestTraceIO:
    def test_written_bytes_digest(self, tmp_path):
        # taken from the writer that formatted one row per iteration
        h = hashlib.sha256()
        for i, trace in enumerate(_pin_traces()):
            path = tmp_path / f"trace{i}.csv"
            write_trace(trace, path)
            h.update(path.read_bytes())
            h.update(path.with_suffix(".json").read_bytes())
        assert h.hexdigest() == (
            "9261aacf46e086ecf0683e55cb94f0d770c7051b11185df32291221c085fe60e"
        )

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
        "body, line",
        [
            ("0.0,12\n0.001,3,4\n0.002,5\n", 3),
            ("0.0,12\n0.001,3,\n0.002,5\n", 3),
            ("0.0,12\n7\n0.002,5\n", 3),
            ("0.0,12\n0.001,3#4\n0.002,5\n", 3),
            ("0.0,1\n\n0.001,oops\n", 4),
            ("0.0,1\r\n\r\n0.001,2,3\r\n", 4),
            ("0.0,1\n  \n0.001,\n", 4),
        ],
        ids=[
            "three-fields",
            "trailing-comma",
            "one-field",
            "hash-in-count",
            "blank-then-malformed",
            "crlf-malformed",
            "spaces-then-empty-count",
        ],
    )
    def test_malformed_row_message(self, tmp_path, body, line):
        path = tmp_path / "bad.csv"
        path.write_bytes(("t_s,counts\n" + body).encode())
        path.with_suffix(".json").write_text('{"bin_width_s": 0.001}')
        with pytest.raises(ValueError) as info:
            read_trace(path)
        assert str(info.value) == f"malformed trace row at line {line} of {path}"

    @pytest.mark.parametrize(
        "body, counts",
        [
            ("0.0, 12 \n0.001,\t3\n0.002 ,4\n", [12.0, 3.0, 4.0]),
            ("0.0,12\r\n0.001,3\r\n", [12.0, 3.0]),
            ("0.0,12\n0.001,3\n\n", [12.0, 3.0]),
            ("0.0,12\n\n  \n0.001,3\n \n", [12.0, 3.0]),
            ("0.0,7\n", [7.0]),
            ("0.0,7", [7.0]),
            ("0.0,12\n# 0.001,3\n0.002,5\n", [12.0, 3.0, 5.0]),
            ("0.0,1_000\n", [1000.0]),
            ("0.0,1.5e1\n0.001,+2.\n0.002,inf\n", None),
        ],
        ids=[
            "spaces-around-count",
            "crlf",
            "trailing-blank-line",
            "whitespace-lines",
            "one-row",
            "one-row-no-newline",
            "hash-is-not-a-comment",
            "digit-separator",
            "inf-is-parsed-then-refused",
        ],
    )
    def test_accepted_rows(self, tmp_path, body, counts):
        path = tmp_path / "ok.csv"
        path.write_bytes(("t_s,counts\n" + body).encode())
        path.with_suffix(".json").write_text('{"bin_width_s": 0.001}')
        if counts is None:
            with pytest.raises(ValueError) as info:
                read_trace(path)
            assert str(info.value) == f"non-finite count at line 4 of {path}"
            return
        trace = read_trace(path)
        np.testing.assert_array_equal(trace.counts, counts)
        assert trace.counts.dtype == np.float64

    def test_non_finite_count_after_blank_lines(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("t_s,counts\n\n0.0,12\n \n\n0.001,-inf\n0.002,3\n")
        path.with_suffix(".json").write_text('{"bin_width_s": 0.001}')
        with pytest.raises(ValueError) as info:
            read_trace(path)
        assert str(info.value) == f"non-finite count at line 6 of {path}"

    @pytest.mark.parametrize(
        "body, text, line, index, expected",
        [
            ("\n 0.004,1\n0.005,2\n", "0.004", 3, 0, "0.0"),
            ("0.0,1\n\n0.001,2\n\n0.005,3\n\n", "0.005", 6, 2, "0.002"),
            ("0.0,1\r\n0.001,2\r\n0.007 ,3\r\n \r\n", "0.007 ", 4, 2, "0.002"),
        ],
        ids=["leading-blank", "blank-lines-before-last", "crlf-last"],
    )
    def test_time_axis_message(self, tmp_path, body, text, line, index, expected):
        path = tmp_path / "gapped.csv"
        path.write_bytes(("t_s,counts\n" + body).encode())
        path.with_suffix(".json").write_text('{"bin_width_s": 0.001}')
        with pytest.raises(ValueError) as info:
            read_trace(path)
        assert str(info.value) == (
            f"t_s {text} at line {line} of {path} is not row {index} x bin_width_s "
            f"= {expected}: the trace has gaps or the sidecar does not match"
        )

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
            ('{"bin_width_s": Infinity}', "bin_width_s must be positive and finite"),
            ('{"bin_width_s": 0\n', "not valid JSON"),
        ],
        ids=[
            "missing-bin-width",
            "list",
            "string-bin-width",
            "zero-bin-width",
            "nan-bin-width",
            "infinite-bin-width",
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

    def test_numpy_bin_width_roundtrips(self, tmp_path):
        # a numpy bin width once wrote t_s cells such as np.float64(0.001),
        # which read_trace refused as malformed
        trace = generate_trace(make_model(), 0.01, np.float64(1e-3), "poisson", rng=3)
        assert type(trace.bin_width) is float
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        assert path.read_text().splitlines()[2].startswith("0.001,")
        back = read_trace(path)
        np.testing.assert_array_equal(back.counts, trace.counts)
        assert back.bin_width == 1e-3

    def test_json_path_refused(self, tmp_path):
        # its own sidecar used to overwrite such a trace
        path = tmp_path / "trace.json"
        with pytest.raises(ValueError, match=re.escape(f"{path} ends in .json")):
            write_trace(BlinkTrace(1e-3, [12.0, 3.0]), path)
        assert list(tmp_path.iterdir()) == []
