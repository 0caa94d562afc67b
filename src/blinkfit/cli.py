"""Command-line front end.

Subcommands: simulate (write a synthetic trace), analyze (estimate
lifetimes from a trace file), train-mfr (build regression models) and
bench (run the full comparison sweep).  All randomness is seeded with a
fixed default so repeated invocations produce byte-identical artifacts.

Time values take an optional ms or s suffix and must be positive and
finite.  A value the library refuses, a bad relation between flags (a
--duration shorter than --bin-width, --tau-min not below --tau-max) or a
path that cannot be read or written prints "error: <message>" and exits
with 1.  Exit codes: 0 success, 1 error, 2 analysis non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from pathlib import Path

from . import bench as bench_mod
from . import ga as ga_mod
from . import mfr as mfr_mod
# the dwell and levmar names are unused here; perfbench/probe.py patches them on this module
from .dwell import auto_threshold, binarize, dwell_histogram  # noqa: F401
from .emitter import EmitterModel, generate_trace, read_trace, write_trace
from .estimate import load_fields, save_fields
from .levmar import fit_exponential  # noqa: F401

DEFAULT_SEED = 1234

_TIME_RE = re.compile(r"^\s*([0-9.eE+-]+)\s*(ms|s)?\s*$")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the CLI contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self._fail(message))

    @staticmethod
    def _fail(message) -> int:
        print(f"error: {message}", file=sys.stderr)
        return 1


def parse_time(text: str) -> float:
    """Parse a positive duration with optional ms/s suffix into seconds."""
    match = _TIME_RE.match(text)
    if not match:
        raise argparse.ArgumentTypeError(f"cannot parse time value {text!r}")
    try:
        value = float(match.group(1))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse time value {text!r}") from exc
    if match.group(2) == "ms":
        value *= 1e-3
    # every time flag is a lifetime, a duration or a bin width
    if not value > 0:
        raise argparse.ArgumentTypeError(f"time value {text!r} must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="blinkfit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a synthetic blinking trace")
    sim.add_argument("--tau-on", type=parse_time, default="15ms")
    sim.add_argument("--tau-off", type=parse_time, default="45ms")
    sim.add_argument("--duration", type=parse_time, default="200s")
    sim.add_argument("--bin-width", type=parse_time, default="1ms")
    sim.add_argument("--noise", choices=["none", "poisson"], default="poisson")
    sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sim.add_argument("--out", required=True, help="output CSV path (JSON sidecar alongside)")

    ana = sub.add_parser("analyze", help="estimate lifetimes from a trace file")
    ana.add_argument("--trace", required=True)
    ana.add_argument("--method", choices=list(bench_mod.METHODS), required=True)
    ana.add_argument("--model", help="MFR model base path (expects <base>_on/_off.json)")
    ana.add_argument("--ga-config", help="GaConfig JSON file")
    ana.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ana.add_argument("--report", help="optional JSON report path")

    tr = sub.add_parser("train-mfr", help="train regression models on synthetic corpora")
    tr.add_argument("--tau-min", type=parse_time, default=repr(mfr_mod.DEFAULT_TAU_RANGE[0]))
    tr.add_argument("--tau-max", type=parse_time, default=repr(mfr_mod.DEFAULT_TAU_RANGE[1]))
    tr.add_argument("--count", type=int, default=mfr_mod.DEFAULT_TRAINING_SETS)
    tr.add_argument("--duration", type=parse_time, default="0.2s")
    tr.add_argument("--bin-width", type=parse_time, default="1ms")
    tr.add_argument("--seed", type=int, default=DEFAULT_SEED)
    tr.add_argument("--out", required=True, help="model base path (writes <base>_on/_off.json)")

    be = sub.add_parser("bench", help="run the estimator comparison sweep")
    be.add_argument("--scenario", default="default", help="default, fig2 or a JSON file")
    be.add_argument("--trials", type=int, default=None)
    be.add_argument("--methods", default=",".join(bench_mod.METHODS))
    be.add_argument("--out", required=True, help="output directory")
    return parser


def _cmd_simulate(args) -> int:
    model = EmitterModel(tau_on=args.tau_on, tau_off=args.tau_off)
    noise = None if args.noise == "none" else args.noise
    trace = generate_trace(model, args.duration, args.bin_width, noise, rng=args.seed)
    write_trace(trace, args.out)
    print(
        f"wrote {len(trace)} bins to {args.out} "
        f"(tau_on={args.tau_on} s, tau_off={args.tau_off} s, seed={args.seed})"
    )
    return 0


def _print_estimate(state: str, est) -> None:
    print(
        f"tau_{state}: {est.tau_hat:.6g} s  std_err: {est.std_err:.3g} s  "
        f"converged: {est.converged}"
    )


def _json_number(value):
    """value, or None for a float JSON cannot hold (NaN or an infinity)."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _cmd_analyze(args) -> int:
    if args.method == "mfr" and not args.model:
        return _Parser._fail("--method mfr requires --model")
    trace_path = Path(args.trace)
    if args.report and Path(args.report).resolve() in (
        trace_path.resolve(), trace_path.with_suffix(".json").resolve()
    ):
        return _Parser._fail(f"--report {args.report} would overwrite the trace or its sidecar")
    trace = read_trace(trace_path)
    models = ga_config = None
    if args.method == "mfr":
        models = {s: load_fields(mfr_mod.MfrModel, f"{args.model}_{s}.json") for s in ("on", "off")}
    if args.method == "ga" and args.ga_config:
        ga_config = load_fields(ga_mod.GaConfig, args.ga_config)
    if args.report:
        # an unwritable report fails here, before the analysis runs
        Path(args.report).write_text("")
    threshold, estimates = bench_mod.analyze_trace(
        trace, args.method, args.seed, models=models, ga_config=ga_config
    )
    report = {"method": args.method, "seed": args.seed, "threshold": _json_number(threshold)}
    for state, est in estimates.items():
        if "error" in est.diagnostics:
            message = est.diagnostics["message"]
            print(f"analysis failed for {state} state: {message}", file=sys.stderr)
        else:
            _print_estimate(state, est)
        # a failed state's lifetime and an unknown uncertainty are NaN, written as null
        report[f"tau_{state}_s"] = _json_number(est.tau_hat)
        report[f"tau_{state}_std_err_s"] = _json_number(est.std_err)
        report[f"{state}_converged"] = est.converged
        # the scalars only: GA's estimate_log is a list of rows
        report[f"{state}_diagnostics"] = {
            key: _json_number(value)
            for key, value in est.diagnostics.items()
            if isinstance(value, (bool, int, float, str))
        }
    if trace.truth is not None:
        print(f"sidecar truth: tau_on={trace.truth[0]} s tau_off={trace.truth[1]} s")
    if args.report:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
        Path(args.report).write_text(text + "\n")
    return 0 if all(est.converged for est in estimates.values()) else 2


def _cmd_train_mfr(args) -> int:
    models = mfr_mod.train_pair(
        (args.tau_min, args.tau_max),
        args.count,
        args.duration,
        bin_width=args.bin_width,
        photon_noise="poisson",
        rng=args.seed,
    )
    if args.count < 5:
        print(
            f"warning: {args.count} training sets leave the regression almost "
            "entirely to the ridge prior",
            file=sys.stderr,
        )
    for state, model in models.items():
        path = f"{args.out}_{state}.json"
        save_fields(model, path)
        print(f"wrote {path} (n={model.n}, duration={args.duration} s)")
    return 0


def _load_scenario(spec: str, trials: int | None) -> bench_mod.Scenario:
    presets = {"default": bench_mod.default_scenario, "fig2": bench_mod.fig2_scenario}
    scenario = presets[spec]() if spec in presets else load_fields(bench_mod.Scenario, spec)
    return scenario if trials is None else dataclasses.replace(scenario, trials_per_cell=trials)


def _cmd_bench(args) -> int:
    try:
        scenario = _load_scenario(args.scenario, args.trials)
    except (OSError, ValueError) as exc:
        return _Parser._fail(f"bad scenario: {exc}")
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    if not methods:
        return _Parser._fail(f"--methods {args.methods!r} names no method")
    for m in methods:
        if m not in bench_mod.METHODS:
            return _Parser._fail(f"unknown method {m!r}")
    if len(set(methods)) < len(methods):
        return _Parser._fail(f"--methods {args.methods!r} names a method twice")
    # the output directory is made only for a run that will start
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        return _Parser._fail(f"output directory not writable: {exc}")

    models = None
    if "mfr" in methods:
        print("training MFR models per duration ...")
        models = bench_mod.train_mfr_models(scenario)
    cells = bench_mod.sweep(scenario, methods, models=models)
    bench_mod.write_results_csv(cells, out_dir / "results.csv")
    bench_mod.write_heatmap_csv(cells, "on", out_dir / "heatmap_on.csv")
    bench_mod.write_heatmap_csv(cells, "off", out_dir / "heatmap_off.csv")
    print(bench_mod.summary_table(cells))
    print(f"wrote {out_dir}/results.csv and heatmap CSVs")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "simulate": _cmd_simulate,
        "analyze": _cmd_analyze,
        "train-mfr": _cmd_train_mfr,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError) as exc:  # a value the library refuses, or a file error
        return _Parser._fail(str(exc))


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
