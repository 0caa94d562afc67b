import hashlib
import io
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from blinkfit.dwell import binarize
from blinkfit.emitter import (
    DEFAULT_MEAN_OFF_COUNTS,
    DEFAULT_MEAN_ON_COUNTS,
    BlinkTrace,
    EmitterModel,
    _draw_dwells,
    _read_sidecar,
    _scan_rows,
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
            ("0.0,-0\n0.001,0\n", [-0.0, 0.0]),
            ("0.0,+7\n", [7.0]),
            ("0.0,9007199254740993\n", [2.0**53]),
            ("0.0,99999999999999999999\n", [1e20]),
            ("0.0,3\n0.001,12\n0.002,0\n0.003,2.5\n", [3.0, 12.0, 0.0, 2.5]),
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
            "minus-zero",
            "plus-sign",
            "rounds-to-even-above-2**53",
            "overflows-int64",
            "fraction-in-the-last-row",
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
        # bytes, so that the sign of a zero counts
        assert trace.counts.tobytes() == np.array(counts, dtype=np.float64).tobytes()
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

    @pytest.mark.parametrize(
        "raw, outcome",
        [
            (b"t_s,counts\r0.0,12\r0.001,3\r", [12.0, 3.0]),
            (
                b"t_s,counts\n0.0,12\n0.001,3\xff\n",
                (ValueError, "cannot decode line 3 of {path}: 'utf-8' codec can't decode "
                 "byte 0xff in position 25: invalid start byte"),
            ),
            (
                b"t_s,counts\r\n0.0,12\r0.001,3\r\xff\n",
                (ValueError, "cannot decode line 4 of {path}: 'utf-8' codec can't decode "
                 "byte 0xff in position 27: invalid start byte"),
            ),
            (
                "\ufefft_s,counts\n0.0,12\n".encode(),
                (ValueError, "unexpected trace header '\\ufefft_s,counts' in {path}"),
            ),
            (
                "t_s,counts\n0.0,1\u20282\n0.001,3\n".encode(),
                (ValueError, "malformed trace row at line 2 of {path}"),
            ),
            ("t_s,counts\n0.0,12\n0.001,3\n\xa0\n".encode(), [12.0, 3.0]),
        ],
        ids=["lone-cr", "undecodable-byte", "undecodable-after-cr-ends", "bom", "line-separator-in-row", "nbsp-line"],
    )
    def test_text_edge_cases(self, tmp_path, raw, outcome):
        path = tmp_path / "edge.csv"
        path.write_bytes(raw)
        path.with_suffix(".json").write_text('{"bin_width_s": 0.001}')
        if isinstance(outcome, list):
            trace = read_trace(path)
            np.testing.assert_array_equal(trace.counts, outcome)
            assert trace.counts.dtype == np.float64
            return
        kind, message = outcome
        with pytest.raises(kind) as info:
            read_trace(path)
        assert type(info.value) is kind
        assert str(info.value) == message.format(path=path)

    @pytest.mark.parametrize(
        "tail, message",
        [
            (b"\xff\n", "can't decode byte 0xff in position 24018: invalid start byte"),
            (b"\xe2", "can't decode byte 0xe2 in position 24018: unexpected end of data"),
        ],
        ids=["past-first-8-KiB", "cut-at-end"],
    )
    def test_undecodable_byte_position_is_the_files(self, tmp_path, tail, message):
        # the position counts from the start of the file; the text stream
        # read_trace once used counted from the end of its first 8192-byte
        # chunk, and reported 15826 for both
        path = tmp_path / "bad.csv"
        path.write_bytes(b"t_s,counts\n0.0,12\n" + b"0.001,3\n" * 3000 + tail)
        path.with_suffix(".json").write_text('{"bin_width_s": 0.001}')
        with pytest.raises(ValueError) as info:
            read_trace(path)
        assert type(info.value) is ValueError
        assert str(info.value) == f"cannot decode line 3003 of {path}: 'utf-8' codec " + message

    def test_last_of_200000_rows_reports_line(self, tmp_path):
        path = tmp_path / "long.csv"
        rows = "".join(f"{i * 1e-3!r},1\n" for i in range(199999))
        path.write_text("t_s,counts\n" + rows + "200.0,1\n")
        path.with_suffix(".json").write_text('{"bin_width_s": 0.001}')
        with pytest.raises(ValueError) as info:
            read_trace(path)
        assert str(info.value) == (
            f"t_s 200.0 at line 200001 of {path} is not row 199999 x bin_width_s "
            f"= {199999 * 1e-3!r}: the trace has gaps or the sidecar does not match"
        )


# --- reference: read_trace as it read the file through a text stream --------
#
# Kept verbatim from before read_trace read the file's bytes once, counted
# the commas on the bytes, numbered lines only for an error message and
# parsed integer counts as int64 first.  The fuzz below requires both to
# give the same counts or the same error; read_trace words an undecodable
# file's error as expected_outcome says.


def ref_bulk_counts(path: Path, rows: int) -> np.ndarray | None:
    if rows == 0:
        return None
    try:
        counts = np.loadtxt(path, delimiter=",", usecols=1, comments=None, ndmin=1, skiprows=1)
    except ValueError:
        return None
    return counts if counts.size == rows else None


def ref_edge_rows(body: str) -> list[tuple[int, str]]:
    first = len(body) - len(body.lstrip())
    last = body.rfind("\n", 0, len(body.rstrip())) + 1
    rows = []
    for start in (first, last):
        end = body.find("\n", start)
        line = body[start : end if end >= 0 else None]
        rows.append((2 + body.count("\n", 0, start), line.strip().split(",")[0]))
    return rows


def ref_read_trace(path) -> BlinkTrace:
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().strip()
        if header != "t_s,counts":
            raise ValueError(f"unexpected trace header {header!r} in {path}")
        body = fh.read()
    counts = ref_bulk_counts(path, body.count(","))
    if counts is None or not np.isfinite(counts).all():
        counts = _scan_rows(path)
    meta = _read_sidecar(path.with_suffix(".json"))
    truth = None
    if meta.get("tau_on_s") is not None and meta.get("tau_off_s") is not None:
        truth = (meta["tau_on_s"], meta["tau_off_s"])
    trace = BlinkTrace(
        bin_width=meta["bin_width_s"],
        counts=np.asarray(counts),
        mean_on_counts=meta.get("mean_on_counts", DEFAULT_MEAN_ON_COUNTS),
        mean_off_counts=meta.get("mean_off_counts", DEFAULT_MEAN_OFF_COUNTS),
        truth=truth,
        seed=meta.get("seed"),
    )
    for index, (lineno, text) in zip((0, len(trace) - 1), ref_edge_rows(body)):
        try:
            t = float(text)
        except ValueError as exc:
            raise ValueError(f"malformed trace row at line {lineno} of {path}") from exc
        expected = index * trace.bin_width
        if not abs(t - expected) <= 1e-6 * trace.bin_width:
            raise ValueError(
                f"t_s {text} at line {lineno} of {path} is not row {index} x bin_width_s "
                f"= {expected!r}: the trace has gaps or the sidecar does not match"
            )
    return trace


FUZZ_HEADERS = ["t_s,counts"] * 30 + [
    " t_s,counts\t", "t_s,counts\xa0", "\ufefft_s,counts", "t_s;counts", "t_s,counts,", "",
]
FUZZ_COUNTS = ["12", "3", "0", "41"] * 6 + [
    "-0", "7.5", "1e3", " 4 ", "\t5", "1_000", "+2.", "nan", "inf", "-inf", "", "x", "3#4",
    "1\u20282", "2\xa0", "6\u3000", "+7", "9007199254740993",
]
FUZZ_MALFORMED = ["7", "0.0,1,2", "#0.0,1", "0.0,1 # c", ",", "0.0;1", ",,", "a,b"]
# str.isspace() is true for each; only "\n" (after "\r\n" and "\r") ends a line
FUZZ_SPACE = [" ", "\t", "\xa0", "\u2028", "\u3000", "\x0c", "\x0b", "\x1c", "\x85"]
FUZZ_ENDS = ["\n", "\r\n", "\r"]
FUZZ_BAD_BYTES = [b"\xff", b"\x80", b"\xe2\x28"]  # each undecodable where it stands


def fuzz_trace_file(rng) -> bytes:
    """The bytes of one small trace file, mostly well formed."""
    pick = lambda options: options[rng.integers(len(options))]  # noqa: E731
    pad = lambda: pick(FUZZ_SPACE) if rng.random() < 0.1 else ""  # noqa: E731
    lines, row = [pick(FUZZ_HEADERS)], 0
    for _ in range(rng.integers(0, 10)):
        kind = rng.random()
        if kind < 0.15:
            lines.append("".join(pick(FUZZ_SPACE) for _ in range(rng.integers(0, 3))))
        elif kind < 0.19:
            lines.append(pick(FUZZ_MALFORMED))
        else:
            t = repr((row + (rng.random() < 0.05)) * 1e-3)
            lines.append(f"{pad()}{t}{pad()},{pick(FUZZ_COUNTS)}{pad()}")
            row += 1
    ends = [pick(FUZZ_ENDS)] * len(lines) if rng.random() < 0.8 else [
        pick(FUZZ_ENDS) for _ in lines
    ]
    if rng.random() < 0.3:
        ends[-1] = ""
    data = "".join(line + end for line, end in zip(lines, ends)).encode()
    if rng.random() < 0.08:
        at = rng.integers(len(data) + 1)
        data = data[:at] + pick(FUZZ_BAD_BYTES) + data[at:]
    return data


def read_outcome(read, path):
    """The counts' bytes and dtype, or the type and message of the error."""
    try:
        trace = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return trace.counts.tobytes(), trace.counts.dtype


def undecodable_line(data: bytes) -> int:
    """The line of data's first undecodable byte, as a universal-newlines stream counts it."""
    try:
        data.decode()
    except UnicodeDecodeError as exc:
        head = io.TextIOWrapper(io.BytesIO(data[: exc.start]), encoding="utf-8", newline=None)
        return 1 + head.read().count("\n")
    raise AssertionError("data decodes")


def expected_outcome(path, data: bytes):
    """ref_read_trace's outcome, its UnicodeDecodeError worded as read_trace words it:
    a ValueError naming the line and the path, ending with the codec's text."""
    kind, *rest = outcome = read_outcome(ref_read_trace, path)
    if kind is UnicodeDecodeError:
        return ValueError, f"cannot decode line {undecodable_line(data)} of {path}: {rest[0]}"
    return outcome


def record_loadtxt(monkeypatch) -> list[tuple[type, bool]]:
    """Wrap np.loadtxt; each call appends its dtype and whether it returned."""
    calls = []
    loadtxt = np.loadtxt

    def wrapper(*args, **kwargs):
        dtype = kwargs.get("dtype", float)
        try:
            out = loadtxt(*args, **kwargs)
        except ValueError:
            calls.append((dtype, False))
            raise
        calls.append((dtype, True))
        return out

    monkeypatch.setattr(np, "loadtxt", wrapper)
    return calls


def float_fallback_loadtxt(monkeypatch, chained: bool) -> None:
    """Make np.loadtxt read an int64 cell that is not an integer as a float and cast it,
    with a DeprecationWarning, as numpy 1.23 to at least 1.26 do.

    Where that warning is an error, chained raises it as the cause of a ValueError, as
    numpy's parser reports a failed cell; otherwise the warning itself propagates.
    """
    loadtxt = np.loadtxt

    def wrapper(*args, dtype=float, **kwargs):
        try:
            return loadtxt(*args, dtype=dtype, **kwargs)
        except ValueError:
            if dtype is not np.int64:
                raise
        values = loadtxt(*args, dtype=float, **kwargs)
        try:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
        except DeprecationWarning as exc:
            if chained:
                raise ValueError("could not convert string to int64") from exc
            raise
        with np.errstate(invalid="ignore"):
            return values.astype(np.int64)

    monkeypatch.setattr(np, "loadtxt", wrapper)


class TestReadTraceOracle:
    @pytest.mark.parametrize("block", range(4))
    def test_fuzz_matches_reference(self, tmp_path, monkeypatch, block):
        path = tmp_path / "fuzz.csv"
        sidecar = path.with_suffix(".json")
        rng = np.random.default_rng([20, block])
        calls = record_loadtxt(monkeypatch)
        undecodable = 0
        passes = {"int64 ran": 0, "int64 read": 0, "float64 ran": 0}
        for case in range(750):
            data = fuzz_trace_file(rng)
            path.write_bytes(data)
            sidecar.unlink(missing_ok=True)
            if rng.random() < 0.97:
                width = 2e-3 if rng.random() < 0.1 else 1e-3
                sidecar.write_text(json.dumps({"bin_width_s": width}))
            expected = expected_outcome(path, data)
            calls.clear()
            assert read_outcome(read_trace, path) == expected, (block, case, data)
            undecodable += "cannot decode" in str(expected[1])
            passes["int64 ran"] += any(dtype is np.int64 for dtype, _ in calls)
            passes["int64 read"] += (np.int64, True) in calls
            passes["float64 ran"] += any(dtype is float for dtype, _ in calls)
        assert undecodable > 20
        # both passes of _bulk_counts, and the int64 pass giving the counts
        assert passes["int64 ran"] > 100 and passes["float64 ran"] > 100, passes
        assert passes["int64 read"] > 50, passes

    @pytest.mark.parametrize("chained", [True, False], ids=["chained", "raised"])
    def test_int_pass_refuses_numpys_float_fallback(self, tmp_path, monkeypatch, chained):
        bodies = [
            "0.0,3\n0.001,12\n0.002,2.5\n",
            "0.0,3\n0.001,99999999999999999999\n",
            "0.0,3\n0.001,inf\n",
            "0.0,3\n0.001,nan\n",
        ]
        paths = []
        for i, body in enumerate(bodies):
            paths.append(tmp_path / f"t{i}.csv")
            paths[-1].write_text("t_s,counts\n" + body)
            paths[-1].with_suffix(".json").write_text('{"bin_width_s": 0.001}')
        expected = [read_outcome(ref_read_trace, path) for path in paths]
        float_fallback_loadtxt(monkeypatch, chained)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            # where the warning is not an error, the cast gives wrong counts
            assert np.loadtxt(["2.5"], dtype=np.int64) == 2
        for path, outcome in zip(paths, expected):
            assert read_outcome(read_trace, path) == outcome, path.read_text()

    def test_int_pass_reads_poisson_files(self, tmp_path, monkeypatch):
        # a --noise none trace has fractional counts where a bin straddles a switch
        paths = {}
        for noise in ("poisson", None):
            paths[noise] = tmp_path / f"{noise}.csv"
            write_trace(generate_trace(make_model(), 2.0, 1e-3, noise, rng=3), paths[noise])
        expected = {noise: read_outcome(ref_read_trace, p) for noise, p in paths.items()}
        calls = record_loadtxt(monkeypatch)
        assert read_outcome(read_trace, paths["poisson"]) == expected["poisson"]
        assert calls == [(np.int64, True)]
        calls.clear()
        assert read_outcome(read_trace, paths[None]) == expected[None]
        assert calls == [(np.int64, False), (float, True)]
        assert np.frombuffer(expected[None][0]).round().tobytes() != expected[None][0]
