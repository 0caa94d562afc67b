import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from blinkfit import cli
from blinkfit.cli import main, parse_time


def run(args):
    return main(args)


def read_strict_json(path):
    """The JSON in the file at path, refusing NaN and Infinity as strict JSON does."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


def assert_error(capsys, *names):
    """stderr is one error line with no traceback, naming each of names.

    Returns what was printed to stdout.
    """
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "Traceback" not in err
    for name in names:
        assert name in err
    return out


class TestImport:
    def test_cli_imports_no_scipy(self):
        # numpy is the only runtime dependency; scipy is a test oracle only
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys, blinkfit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_cli_imports_no_process_pool(self):
        # only a bench run with more than one worker needs a process pool
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys, blinkfit.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('concurrent.futures', 'multiprocessing'))))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]"


class TestParseTime:
    def test_units(self):
        assert parse_time("15ms") == pytest.approx(15e-3)
        assert parse_time("0.2s") == pytest.approx(0.2)
        assert parse_time("200") == pytest.approx(200.0)

    def test_rejects_garbage(self):
        with pytest.raises(Exception):
            parse_time("fast")

    @pytest.mark.parametrize("text", ["0", "0ms", "-5ms"])
    def test_rejects_non_positive(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="positive"):
            parse_time(text)


class TestSimulate:
    def test_writes_trace_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = run(
            [
                "simulate",
                "--tau-on", "15ms",
                "--tau-off", "45ms",
                "--duration", "0.5s",
                "--bin-width", "1ms",
                "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists() and out.with_suffix(".json").exists()
        assert len(out.read_text().splitlines()) == 501  # header + 500 bins
        meta = json.loads(out.with_suffix(".json").read_text())
        assert meta["tau_on_s"] == pytest.approx(15e-3)

    def test_single_bin(self, tmp_path):
        out = tmp_path / "one.csv"
        code = run(["simulate", "--duration", "1ms", "--bin-width", "1ms", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 2

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["simulate", "--duration", "0.3s", "--seed", "3"]
        assert run(base + ["--out", str(a)]) == 0
        assert run(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (
            a.with_suffix(".json").read_text().replace('"seed": 3', "")
            == b.with_suffix(".json").read_text().replace('"seed": 3', "")
        )

    def test_bad_flags(self, tmp_path):
        assert run(["simulate", "--duration", "oops", "--out", str(tmp_path / "x.csv")]) == 1
        assert run(["simulate", "--unknown-flag", "1", "--out", str(tmp_path / "x.csv")]) == 1
        assert run(["simulate", "--bin-width", "0", "--out", str(tmp_path / "x.csv")]) == 1
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flag", ["--duration", "--tau-on"])
    def test_infinite_time_refused(self, tmp_path, capsys, flag):
        # an infinite duration overflowed with a traceback; an infinite
        # lifetime exited 0 and wrote Infinity into the sidecar
        out = tmp_path / "x.csv"
        assert run(["simulate", flag, "1e999s", "--out", str(out)]) == 1
        assert_error(capsys, "positive and finite")
        assert list(tmp_path.iterdir()) == []

    def test_missing_output_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert run(["simulate", "--duration", "0.1s", "--out", str(out)]) == 1
        assert_error(capsys, str(out))

    def test_json_output_refused(self, tmp_path, capsys):
        # the sidecar used to overwrite such a trace, after "wrote 50 bins"
        out = tmp_path / "x.json"
        assert run(["simulate", "--duration", "0.05s", "--out", str(out)]) == 1
        assert assert_error(capsys, str(out), ".json") == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 2.73 GiB for an array"), "Unable to allocate 2.73 GiB"),
        (MemoryError(), "MemoryError"),
    ])
    def test_allocation_failure(self, tmp_path, capsys, monkeypatch, exc, message):
        # a trace too long for memory ended in a traceback; the stub raises
        # what numpy would, so the test allocates nothing
        def no_memory(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "generate_trace", no_memory)
        out = tmp_path / "x.csv"
        assert run(["simulate", "--duration", "1e7s", "--out", str(out)]) == 1
        assert assert_error(capsys, message) == ""
        assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def trace_200s(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "long.csv"
    assert run(["simulate", "--duration", "60s", "--seed", "11", "--out", str(path)]) == 0
    return path


class TestAnalyze:
    def test_lm_against_sidecar_truth(self, trace_200s, capsys):
        code = run(["analyze", "--trace", str(trace_200s), "--method", "lm"])
        out = capsys.readouterr().out
        assert code == 0
        tau_on = float(out.split("tau_on: ")[1].split(" s")[0])
        tau_off = float(out.split("tau_off: ")[1].split(" s")[0])
        assert abs(tau_on - 15e-3) / 15e-3 < 0.1
        assert abs(tau_off - 45e-3) / 45e-3 < 0.1

    def test_mfr_without_model_is_usage_error(self, trace_200s):
        assert run(["analyze", "--trace", str(trace_200s), "--method", "mfr"]) == 1

    def test_missing_trace(self):
        assert run(["analyze", "--trace", "/nonexistent.csv", "--method", "lm"]) == 1

    def test_malformed_trace_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t_s,counts\n0.0,5\nbroken\n")
        bad.with_suffix(".json").write_text('{"bin_width_s": 0.001}')
        assert run(["analyze", "--trace", str(bad), "--method", "lm"]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_report_into_missing_directory(self, trace_200s, tmp_path, capsys):
        # refused before the analysis runs: no estimate is printed
        report = tmp_path / "missing" / "r.json"
        for method in ("lm", "ga"):
            args = ["analyze", "--trace", str(trace_200s), "--method", method,
                    "--report", str(report)]
            assert run(args) == 1
            assert "tau_" not in assert_error(capsys, str(report))

    def test_no_report_when_an_input_fails(self, trace_200s, tmp_path, capsys):
        report = tmp_path / "r.json"
        missing = str(tmp_path / "missing.json")
        for extra in (["--trace", missing, "--method", "lm"],
                      ["--trace", str(trace_200s), "--method", "ga", "--ga-config", missing]):
            assert run(["analyze", *extra, "--report", str(report)]) == 1
            assert_error(capsys, missing)
            assert not report.exists()

    def test_undecodable_trace_refused(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        trace.write_bytes(b"t_s,counts\n0.0,12\n0.001,3\xff\n")
        trace.with_suffix(".json").write_text('{"bin_width_s": 0.001}')
        report = tmp_path / "r.json"
        args = ["analyze", "--trace", str(trace), "--method", "lm", "--report", str(report)]
        assert run(args) == 1
        assert capsys.readouterr().err == (
            f"error: cannot decode line 3 of {trace}: 'utf-8' codec can't decode byte 0xff "
            "in position 25: invalid start byte\n"
        )
        assert not report.exists()

    @pytest.mark.parametrize("target", ["trace", "sidecar"])
    def test_report_onto_trace_files_refused(self, tmp_path, capsys, target):
        # the report would replace the trace or its sidecar, which then no longer loads
        trace = tmp_path / "t.csv"
        assert run(["simulate", "--duration", "1s", "--out", str(trace)]) == 0
        capsys.readouterr()
        files = {"trace": trace, "sidecar": trace.with_suffix(".json")}
        before = {name: path.read_bytes() for name, path in files.items()}
        # a spelling of the same file that differs from --trace's
        report = tmp_path / "sub" / ".." / files[target].name
        (tmp_path / "sub").mkdir()
        args = ["analyze", "--trace", str(trace), "--method", "lm", "--report", str(report)]
        assert run(args) == 1
        assert "tau_" not in assert_error(capsys, "--report", "sidecar")
        assert {name: path.read_bytes() for name, path in files.items()} == before

    def test_bad_sidecar_reports_file(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        trace.write_text("t_s,counts\n0.0,5\n0.001,7\n")
        trace.with_suffix(".json").write_text('{"bin_width_s": "0.001"}')
        assert run(["analyze", "--trace", str(trace), "--method", "lm"]) == 1
        err = capsys.readouterr().err
        assert "t.json" in err and "bin_width_s" in err

    def test_null_mean_count_in_sidecar(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        trace.write_text("t_s,counts\n0.0,5\n0.001,7\n")
        trace.with_suffix(".json").write_text('{"bin_width_s": 0.001, "mean_on_counts": null}')
        assert run(["analyze", "--trace", str(trace), "--method", "lm"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: sidecar {trace.with_suffix('.json')}: "
                                    "mean_on_counts must be a number, got None"]

    def test_ga_deterministic_report(self, tmp_path, capsys):
        trace = tmp_path / "short.csv"
        assert run(["simulate", "--duration", "5s", "--seed", "2", "--out", str(trace)]) == 0
        reports = []
        for name in ("r1.json", "r2.json"):
            rpt = tmp_path / name
            code = run(
                [
                    "analyze",
                    "--trace", str(trace),
                    "--method", "ga",
                    "--seed", "9",
                    "--report", str(rpt),
                ]
            )
            assert code in (0, 2)
            reports.append(rpt.read_bytes())
        assert reports[0] == reports[1]


@pytest.fixture(scope="module")
def trace_2s(tmp_path_factory):
    path = tmp_path_factory.mktemp("short") / "t2.csv"
    assert run(["simulate", "--duration", "2s", "--seed", "0", "--out", str(path)]) == 0
    return path


class TestSharedPipeline:
    """analyze applies the bench's rules, through bench.analyze_trace."""

    def test_lm_sanity_rule_rejects_off_state(self, trace_2s, tmp_path):
        # the off-state fit diverges (tau far beyond 100x the mean dwell)
        from blinkfit.bench import analyze_trace
        from blinkfit.cli import DEFAULT_SEED
        from blinkfit.dwell import auto_threshold, binarize, dwell_histogram, empirical_density
        from blinkfit.emitter import read_trace
        from blinkfit.levmar import fit_exponential

        report = tmp_path / "r.json"
        code = run(["analyze", "--trace", str(trace_2s), "--method", "lm", "--report", str(report)])
        assert code == 2
        payload = json.loads(report.read_text())
        assert payload["off_converged"] is False
        assert payload["on_converged"] is True
        trace = read_trace(trace_2s)
        _, estimates = analyze_trace(trace, "lm", DEFAULT_SEED)
        assert estimates["off"].diagnostics["sanity_rejected"] is True
        assert "sanity_rejected" not in estimates["on"].diagnostics
        # a bare fit on the same histograms gives the same verdicts
        hists = dwell_histogram(binarize(trace, auto_threshold(trace)))
        for hist in hists:
            fit = fit_exponential(empirical_density(hist))
            est = estimates[hist.state]
            assert fit.converged == est.converged
            assert fit.diagnostics.get("sanity_rejected") == est.diagnostics.get("sanity_rejected")

    @pytest.mark.parametrize("method", ["lm", "ga"])
    def test_report_matches_bench_function(self, trace_2s, tmp_path, method):
        from blinkfit.bench import analyze_trace
        from blinkfit.cli import DEFAULT_SEED
        from blinkfit.emitter import read_trace

        report = tmp_path / "r.json"
        run(["analyze", "--trace", str(trace_2s), "--method", method, "--report", str(report)])
        payload = json.loads(report.read_text())
        threshold, estimates = analyze_trace(read_trace(trace_2s), method, DEFAULT_SEED)
        assert payload["threshold"] == threshold
        for state, est in estimates.items():
            assert payload[f"tau_{state}_s"] == est.tau_hat
            assert payload[f"{state}_converged"] == est.converged

    def test_report_writes_unknown_std_err_as_null(self, trace_2s, tmp_path):
        # the on-state GA run accepts nothing and MFR gives no uncertainty, so
        # their std_err is NaN, which JSON cannot hold
        from blinkfit.bench import analyze_trace
        from blinkfit.cli import DEFAULT_SEED
        from blinkfit.emitter import read_trace

        report = tmp_path / "r.json"
        run(["analyze", "--trace", str(trace_2s), "--method", "ga", "--report", str(report)])

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        payload = json.loads(report.read_text(), parse_constant=refuse)
        _, estimates = analyze_trace(read_trace(trace_2s), "ga", DEFAULT_SEED)
        assert estimates["on"].diagnostics["accepted"] == 0
        assert math.isnan(estimates["on"].std_err)
        assert payload["tau_on_std_err_s"] is None
        assert payload["tau_off_std_err_s"] == estimates["off"].std_err

        # MFR gives no uncertainty for either state
        base = tmp_path / "model"
        assert run(["train-mfr", "--count", "2", "--duration", "2s", "--out", str(base)]) == 0
        run(["analyze", "--trace", str(trace_2s), "--method", "mfr", "--model", str(base),
             "--report", str(report)])
        payload = json.loads(report.read_text(), parse_constant=refuse)
        for state in ("on", "off"):
            assert payload[f"tau_{state}_s"] is not None
            assert payload[f"tau_{state}_std_err_s"] is None

    def test_report_writes_scalar_diagnostics(self, trace_2s, tmp_path):
        from blinkfit.bench import analyze_trace
        from blinkfit.cli import DEFAULT_SEED
        from blinkfit.emitter import read_trace

        report = tmp_path / "r.json"
        payloads = {}
        for method in ("lm", "ga"):
            run(["analyze", "--trace", str(trace_2s), "--method", method, "--report", str(report)])
            payloads[method] = payload = read_strict_json(report)
            _, estimates = analyze_trace(read_trace(trace_2s), method, DEFAULT_SEED)
            for state, est in estimates.items():
                scalars = {k: v for k, v in est.diagnostics.items() if k != "estimate_log"}
                assert payload[f"{state}_diagnostics"] == scalars
            if method == "ga":
                assert "estimate_log" in estimates["off"].diagnostics
        # the report shows that the on-state GA result is its heuristic seed,
        # and why L-M's off-state fit was refused
        assert payloads["ga"]["on_diagnostics"]["accepted"] == 0
        assert payloads["ga"]["on_diagnostics"]["termination"] == "patience"
        assert payloads["lm"]["off_diagnostics"]["sanity_rejected"] is True
        assert payloads["lm"]["off_diagnostics"]["reason"] == "xtol"

    def test_report_of_a_failed_state(self, tmp_path, capsys):
        # 50 ms holds no dwell between the two censored boundary runs
        trace = tmp_path / "short.csv"
        assert run(["simulate", "--duration", "50ms", "--seed", "0", "--out", str(trace)]) == 0
        report = tmp_path / "r.json"
        args = ["analyze", "--trace", str(trace), "--method", "lm", "--report", str(report)]
        assert run(args) == 2
        assert "analysis failed for on state" in capsys.readouterr().err
        payload = read_strict_json(report)
        assert payload["threshold"] is None
        for state in ("on", "off"):
            assert payload[f"tau_{state}_s"] is None
            assert payload[f"tau_{state}_std_err_s"] is None
            assert payload[f"{state}_converged"] is False
            assert payload[f"{state}_diagnostics"] == {
                "error": "EmptyHistogramError",
                "message": "no interior dwell between the censored boundary runs",
            }

    def test_report_writes_non_finite_values_as_null(self, trace_2s, tmp_path, monkeypatch):
        from blinkfit import bench
        from blinkfit.estimate import RateEstimate

        diagnostics = {"cost": math.inf, "y0": -math.inf, "heuristic": math.nan,
                       "reason": "xtol", "iterations": 3, "converged": True,
                       "estimate_log": [(1, 0.015, 0.5)]}
        est = RateEstimate(tau_hat=0.015, std_err=math.nan, method="lm", converged=True,
                           diagnostics=diagnostics)
        monkeypatch.setattr(bench, "analyze_trace", lambda *a, **k: (math.nan, {"on": est}))
        report = tmp_path / "r.json"
        args = ["analyze", "--trace", str(trace_2s), "--method", "lm", "--report", str(report)]
        assert run(args) == 0
        assert read_strict_json(report) == {
            "method": "lm", "seed": 1234, "threshold": None,
            "tau_on_s": 0.015, "tau_on_std_err_s": None, "on_converged": True,
            "on_diagnostics": {"cost": None, "y0": None, "heuristic": None,
                               "reason": "xtol", "iterations": 3, "converged": True},
        }

    def test_ga_config_unknown_key(self, trace_2s, tmp_path, capsys):
        cfg = tmp_path / "ga.json"
        cfg.write_text(json.dumps({"tau_range_s": [1e-3, 0.1]}))
        code = run(["analyze", "--trace", str(trace_2s), "--method", "ga", "--ga-config", str(cfg)])
        assert code == 1
        assert "tau_range_s" in capsys.readouterr().err

    def test_mfr_bin_width_mismatch(self, trace_2s, tmp_path, capsys):
        base = tmp_path / "model"
        train = ["train-mfr", "--count", "2", "--duration", "2s", "--bin-width", "0.5ms"]
        assert run(train + ["--out", str(base)]) == 0
        code = run(["analyze", "--trace", str(trace_2s), "--method", "mfr", "--model", str(base)])
        assert code == 2
        assert "bin width" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, key", [("drop", "n"), ("add", "bin_width_s")])
    def test_mfr_model_bad_key(self, trace_2s, tmp_path, capsys, edit, key):
        base = tmp_path / "model"
        assert run(["train-mfr", "--count", "2", "--duration", "2s", "--out", str(base)]) == 0
        on = tmp_path / "model_on.json"
        payload = json.loads(on.read_text())
        if edit == "drop":
            del payload[key]
        else:
            payload[key] = 1e-3
        on.write_text(json.dumps(payload))
        code = run(["analyze", "--trace", str(trace_2s), "--method", "mfr", "--model", str(base)])
        assert code == 1
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("bin_width", 0.0), ("trained_duration", -2.0)])
    def test_mfr_model_bad_protocol(self, trace_2s, tmp_path, capsys, key, value):
        base = tmp_path / "model"
        assert run(["train-mfr", "--count", "2", "--duration", "2s", "--out", str(base)]) == 0
        on = tmp_path / "model_on.json"
        payload = json.loads(on.read_text())
        payload[key] = value
        on.write_text(json.dumps(payload))
        code = run(["analyze", "--trace", str(trace_2s), "--method", "mfr", "--model", str(base)])
        assert code == 1
        err = capsys.readouterr().err
        assert "must be positive" in err and str(on) in err

    def test_mfr_model_float_feature_count(self, trace_2s, tmp_path, capsys):
        base = tmp_path / "model"
        assert run(["train-mfr", "--count", "2", "--duration", "2s", "--out", str(base)]) == 0
        on = tmp_path / "model_on.json"
        payload = json.loads(on.read_text())
        payload["n"] = float(payload["n"])
        on.write_text(json.dumps(payload))
        code = run(["analyze", "--trace", str(trace_2s), "--method", "mfr", "--model", str(base)])
        assert code == 1
        err = capsys.readouterr().err
        assert "n must be an integer" in err and str(on) in err


class TestTrainMfr:
    def test_writes_two_models(self, tmp_path, capsys):
        base = tmp_path / "model"
        code = run(
            [
                "train-mfr",
                "--count", "4",
                "--duration", "0.2s",
                "--seed", "5",
                "--out", str(base),
            ]
        )
        assert code == 0
        for state in ("on", "off"):
            payload = json.loads((tmp_path / f"model_{state}.json").read_text())
            assert payload["trained_duration"] == pytest.approx(0.2)
            assert len(payload["weights"]) == payload["n"] + 1

    def test_analyze_with_trained_model(self, tmp_path, trace_200s):
        base = tmp_path / "model"
        assert run(
            ["train-mfr", "--count", "4", "--duration", "60s", "--seed", "5", "--out", str(base)]
        ) == 0
        code = run(
            ["analyze", "--trace", str(trace_200s), "--method", "mfr", "--model", str(base)]
        )
        assert code in (0, 2)

    def test_small_count_warns(self, tmp_path, capsys):
        base = tmp_path / "tiny"
        assert run(
            ["train-mfr", "--count", "1", "--duration", "0.2s", "--out", str(base)]
        ) == 0
        assert "warning" in capsys.readouterr().err

    def test_zero_count_refused_without_warning(self, tmp_path, capsys):
        assert run(["train-mfr", "--count", "0", "--out", str(tmp_path / "m")]) == 1
        assert_error(capsys, "training set")
        assert list(tmp_path.iterdir()) == []

    def test_infinite_tau_max_refused(self, tmp_path, capsys):
        # an infinite --tau-max overflowed in the feature count with a traceback
        assert run(["train-mfr", "--tau-max", "1e999s", "--out", str(tmp_path / "m")]) == 1
        assert_error(capsys, "tau_range")

    def test_missing_output_directory(self, tmp_path, capsys):
        base = tmp_path / "missing" / "m"
        args = ["train-mfr", "--count", "5", "--duration", "0.2s", "--out", str(base)]
        assert run(args) == 1
        assert_error(capsys, f"{base}_on.json")

    def test_invalid_range(self, tmp_path):
        assert run(
            [
                "train-mfr",
                "--tau-min", "50ms",
                "--tau-max", "5ms",
                "--out", str(tmp_path / "m"),
            ]
        ) == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--bin-width", "0"], "must be positive"),
            (["--duration", "0.5ms"], "at least one bin"),
        ],
    )
    def test_bad_time_flags(self, tmp_path, capsys, flags, message):
        assert run(["train-mfr", "--count", "2", *flags, "--out", str(tmp_path / "m")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m_on.json").exists()

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["train-mfr", "--count", "3", "--duration", "0.2s", "--seed", "8"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert (tmp_path / "a_on.json").read_bytes() == (tmp_path / "b_on.json").read_bytes()


class TestBench:
    def test_small_sweep(self, tmp_path, capsys):
        out = tmp_path / "results"
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            json.dumps(
                {
                    "tau_on": 15e-3,
                    "tau_off": 45e-3,
                    "durations": [2.0],
                    "trials_per_cell": 2,
                    "base_seed": 5,
                }
            )
        )
        code = run(
            ["bench", "--scenario", str(scenario), "--methods", "lm", "--out", str(out)]
        )
        assert code == 0
        results = (out / "results.csv").read_text().splitlines()
        assert results[0] == (
            "method,state,duration_s,trials,converged,accuracy,median_rel_err,precision_s"
        )
        assert len(results) == 3  # header + 2 states
        assert (out / "heatmap_on.csv").exists()
        assert (out / "heatmap_off.csv").exists()

    def test_unknown_method(self, tmp_path):
        out = tmp_path / "o"
        assert run(["bench", "--methods", "magic", "--out", str(out)]) == 1
        assert not out.exists()

    def test_empty_method_list(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["bench", "--methods", ",", "--out", str(out)]) == 1
        assert "names no method" in capsys.readouterr().err
        assert not (out / "results.csv").exists()
        assert not out.exists()

    def test_repeated_method_refused(self, tmp_path, capsys):
        # a repeated name would write that method's rows twice and run each trial twice
        out = tmp_path / "o"
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"durations": [0.2], "trials_per_cell": 2}))
        args = ["bench", "--scenario", str(scenario), "--methods", "lm, ga,lm", "--out", str(out)]
        assert run(args) == 1
        assert_error(capsys, "'lm, ga,lm'", "twice")
        assert not out.exists()

    def test_scenario_presets_load(self):
        from blinkfit.cli import _load_scenario

        assert _load_scenario("default", None).tau_on == pytest.approx(15e-3)
        fig2 = _load_scenario("fig2", 7)
        assert fig2.tau_off == pytest.approx(6.7e-3)
        assert fig2.trials_per_cell == 7

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([1, 2], "JSON object"),
            ({"tau_on": -0.01}, "must be positive"),
            ({"bin_width": 0.0}, "must be positive"),
            ({"durations": [0.5e-3, 2.0]}, "at least one bin"),
            ({"noise": "gaussian"}, "noise"),
            ({"durations": [0.2, 0.2]}, "strictly increasing"),
            ({"durations": []}, "non-empty"),
            ({"trials_per_cell": 1.5}, "trials_per_cell"),
            ({"durations": [float("nan")]}, "finite"),
            ({"durations": [2.0, float("inf")]}, "finite"),
            ({"tau_on": float("inf")}, "finite"),
        ],
    )
    def test_bad_scenario(self, tmp_path, capsys, payload, message):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(payload))
        out = tmp_path / "o"
        assert run(
            ["bench", "--scenario", str(scenario), "--methods", "lm", "--out", str(out)]
        ) == 1
        err = capsys.readouterr().err
        assert "bad scenario" in err and message in err and str(scenario) in err
        assert not out.exists()

    def test_deterministic_outputs(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            json.dumps({"durations": [2.0], "trials_per_cell": 2, "base_seed": 6})
        )
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert run(
                ["bench", "--scenario", str(scenario), "--methods", "lm", "--out", str(out)]
            ) == 0
            outs.append((out / "results.csv").read_bytes())
        assert outs[0] == outs[1]
