#!/usr/bin/env python3
"""Benchmark of blinkfit: three workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload long-lm --seed 1 --seconds 30 --trace 0

Run it from the root of a blinkfit checkout; the program is imported from
./src.  With --trace 0 the run is untraced and reports the end-to-end
metrics; with --trace 1 the benchmark wraps blinkfit's layer functions in
spans and reports per-layer metrics.  Every run checks the program's
outputs.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Set-up (import plus input preparation) is repeated this often per run and
# reported as the median; the first import is the run's own, the others are
# timed in fresh interpreters.
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}

# A shared host runs at varying speed: within one minute the same GA trial
# took 1.36-2.53 s, and whole 30 s runs of one workload ran up to 35 %
# faster than others.  So each op is followed by reference_loop(), and its
# time is reported at the reference speed: multiplied by REF_LOOP_S over
# the mean time of the loops just before and just after it.  REF_LOOP_S is
# about the loop's time when the host runs fast.  Set-up is not scaled:
# it is mostly import work, which slowed far less than the loop did.
REF_LOOP_S = 0.006


def reference_loop() -> float:
    """Time of a fixed piece of pure Python: parsing, arithmetic, a dict."""
    start = perf_counter()
    counts: dict = {}
    total = 0.0
    for i in range(5000):
        a, b = f"{i},{i * 0.5}".split(",")
        counts[i & 63] = counts.get(i & 63, 0) + int(a)
        total += float(b)
    return perf_counter() - start


class RefClock:
    """Scales op times to the reference speed (see REF_LOOP_S).

    start() runs the loop before the first op; scale() runs the loop after
    an op.  A disabled clock runs no loop and scales nothing, so that a
    traced run's spans do not hold the loops.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.loops: list[float] = []

    def start(self) -> None:
        if self.enabled:
            self.loops.append(reference_loop())

    def scale(self, seconds: float) -> float:
        if not self.enabled:
            return seconds
        self.loops.append(reference_loop())
        return seconds * 2 * REF_LOOP_S / (self.loops[-2] + self.loops[-1])


_IMPORT_CHILD = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import blinkfit.cli; print(time.perf_counter() - t)"
)


def derive_seed(*parts) -> int:
    """Stable 63-bit seed for one input of one workload."""
    digest = hashlib.blake2b("|".join(map(repr, parts)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass
class Round:
    """One whole round of a workload's ops, with the checks' verdicts."""

    op_s: list[float] = field(default_factory=list)
    op_ref_s: list[float] = field(default_factory=list)  # op_s at the reference speed
    attempted: int = 0
    lm_stalls: int = 0  # LM fits that spent all their iterations (checks.lm_stalled)
    problems: dict = field(default_factory=dict)  # op -> list of problems
    signature: list = field(default_factory=list)  # outputs, for traced == untraced

    @property
    def failed(self) -> int:
        return len(self.problems)


class Sweep:
    """What `blinkfit bench` runs, on the 2 s column of ROADMAP item 1's grid.

    A round trains the 2 s MFR models, runs bench.sweep with all three
    methods at TRIALS trials per cell, and writes results.csv and both
    heatmaps; round r uses its own base seed.  One op is one trial, timed
    around bench.run_trial: one trace to its two lifetimes.  Its checks
    count per (method, state) cell.
    """

    DURATION = 2.0
    TRIALS = 2

    def __init__(self, bf, seed: int, out: Path, clock: RefClock):
        self.bf, self.seed, self.out, self.clock = bf, seed, out, clock
        self.trials: dict = {}
        self.trial_s: list[float] = []
        self.trial_ref_s: list[float] = []
        self.models_checked = False

    def observe(self, patches):
        def record(args, result, seconds):
            scenario, duration, method, index = args[:4]
            self.trials[(method, duration, index)] = result
            self.trial_s.append(seconds)
            self.trial_ref_s.append(self.clock.scale(seconds))

        self.bf.probe.observe(patches, self.bf.bench, "run_trial", record)

    def prepare(self):
        pass

    def run_round(self, r: int) -> Round:
        bench = self.bf.bench
        scenario = bench.default_scenario(
            durations=(self.DURATION,),
            trials_per_cell=self.TRIALS,
            base_seed=derive_seed("sweep", self.seed, r),
        )
        self.trials, self.trial_s, self.trial_ref_s = {}, [], []
        results = self.out / "results.csv"
        models = bench.train_mfr_models(scenario)
        cells = bench.sweep(scenario, models=models, workers=1)
        bench.write_results_csv(cells, results)
        bench.write_heatmap_csv(cells, "on", self.out / "heatmap_on.csv")
        bench.write_heatmap_csv(cells, "off", self.out / "heatmap_off.csv")

        data = results.read_bytes()
        out = Round(
            op_s=self.trial_s,
            op_ref_s=self.trial_ref_s,
            signature=[hashlib.sha256(data).hexdigest()],
        )
        for key, problems in self.check(scenario, models, cells, data.decode()).items():
            if problems:
                out.problems[key] = problems
        out.attempted = len(bench.METHODS) * 2
        return out

    def check(self, scenario, models, cells, results_text) -> dict:
        checks, bench = self.bf.checks, self.bf.bench
        truths = {"on": scenario.tau_on, "off": scenario.tau_off}
        grid = [(m, s, self.DURATION) for m in bench.METHODS for s in ("on", "off")]
        problems = {key: [] for key in grid}

        def merge(found: dict):
            for key, items in found.items():
                problems.setdefault(key, []).extend(items)

        expected = checks.expected_cells(self.trials, truths)
        for key in grid:
            if key not in expected or expected[key]["trials"] != self.TRIALS:
                problems[key].append(f"expected {self.TRIALS} trials")
        merge(checks.cells_match(cells, expected))
        merge(checks.results_csv_matches(results_text, expected))
        for state in ("on", "off"):
            text = (self.out / f"heatmap_{state}.csv").read_text()
            merge(checks.heatmap_csv_matches(text, expected, state))

        for (method, duration, _), per_state in self.trials.items():
            tau_range = bench.DEFAULT_GA_TAU_RANGE if method == "ga" else None
            for state, est in per_state.items():
                problems[(method, state, duration)].extend(
                    checks.estimate_sane(est, tau_range)
                )

        # Regenerating the corpus costs as much as training; the first
        # sweep of a run (always untraced) is checked.
        if not self.models_checked:
            self.models_checked = True
            self.check_models(scenario, models, problems)
        return problems

    def check_models(self, scenario, models, problems):
        bench, mfr, checks = self.bf.bench, self.bf.mfr, self.bf.checks
        import numpy as np

        duration = self.DURATION
        rng = np.random.default_rng(bench.stable_seed(scenario.base_seed, "mfr-train", duration))
        corpora = mfr.generate_training_corpus(
            mfr.DEFAULT_TAU_RANGE,
            mfr.DEFAULT_TRAINING_SETS,
            duration,
            bin_width=scenario.bin_width,
            photon_noise=scenario.noise,
            rng=rng,
        )
        for state, corpus in zip(("on", "off"), corpora):
            problems[("mfr", state, duration)].extend(
                checks.ridge_normal_equations(models[duration][state], corpus)
            )


class LongLm:
    """bench.run_trial(default scenario, 1000 s, "lm", i) over many i.

    The statistical baseline on data-rich traces; simulation dominates and
    GA never runs.  One op is one trial; a round is BATCH trials.
    """

    DURATION = 1000.0
    BATCH = 10

    def __init__(self, bf, seed: int, out: Path, clock: RefClock):
        self.bf, self.clock = bf, clock
        self.scenario = bf.bench.default_scenario(base_seed=derive_seed("long-lm", seed))
        self.seen: dict = {}

    def observe(self, patches):
        def remember(key):
            def record(args, result, seconds):
                self.seen[key] = result

            return record

        for attr, key in (
            ("generate_trace", "trace"),
            ("auto_threshold", "threshold"),
            ("binarize", "states"),
            ("dwell_histogram", "hists"),
        ):
            self.bf.probe.observe(patches, self.bf.bench, attr, remember(key))

    def prepare(self):
        pass

    def run_round(self, r: int) -> Round:
        out = Round()
        for i in range(self.BATCH):
            index = r * self.BATCH + i
            self.seen.clear()
            start = perf_counter()
            estimates = self.bf.bench.run_trial(self.scenario, self.DURATION, "lm", index)
            out.op_s.append(perf_counter() - start)
            out.op_ref_s.append(self.clock.scale(out.op_s[-1]))
            out.attempted += 1
            out.signature.append(tuple(estimates[s].tau_hat for s in ("on", "off")))
            problems = self.check(estimates)
            if problems:
                out.problems[index] = problems
            out.lm_stalls += sum(map(self.bf.checks.lm_stalled, estimates.values()))
        self.seen.clear()
        return out

    def check(self, estimates) -> list[str]:
        checks, seen = self.bf.checks, self.seen
        if len(seen) < 4:
            return [f"trial stopped early: {estimates['on'].diagnostics}"]
        trace, hists = seen["trace"], dict(zip(("on", "off"), seen["hists"]))
        truths = {"on": self.scenario.tau_on, "off": self.scenario.tau_off}
        problems = checks.threshold_between_levels(seen["threshold"], trace)
        problems += checks.histograms_conserve_bins(seen["states"].states, hists["on"], hists["off"])
        problems += checks.on_fraction(trace, truths["on"], truths["off"])
        for state, est in estimates.items():
            # A stall (about 1 fit in 450 here) is counted, not failed: it
            # falls on some seeds only.  Its estimate is checked all the same.
            if not est.converged and not checks.lm_stalled(est):
                problems.append(f"{state}: LM did not converge on a 1000 s trace")
                continue
            problems += checks.estimate_sane(est)
            problems += checks.lm_against_mle(est.tau_hat, hists[state])
            problems += checks.mle_against_truth(hists[state], truths[state])
        return problems


class TraceFiles:
    """`blinkfit analyze --method lm` on trace files, through cli.main.

    Set-up writes FILES traces of 200 s with `blinkfit simulate`; one op
    analyzes one file; a round analyzes each file once.
    """

    FILES = 4
    DURATION = "200s"

    def __init__(self, bf, seed: int, out: Path, clock: RefClock):
        self.bf, self.out, self.clock = bf, out, clock
        self.paths = [out / f"trace{i}.csv" for i in range(self.FILES)]
        self.seeds = [derive_seed("trace-files", seed, i) for i in range(self.FILES)]
        self.written: dict = {}
        self.expected: list = []

    def observe(self, patches):
        def record(args, result, seconds):
            self.written[str(args[1])] = args[0]

        self.bf.probe.observe(patches, self.bf.cli, "write_trace", record)

    def prepare(self):
        for path, seed in zip(self.paths, self.seeds):
            argv = ["simulate", "--duration", self.DURATION, "--seed", str(seed), "--out", str(path)]
            if self.bf.cli.main(argv) != 0:
                raise RuntimeError(f"blinkfit simulate failed: {argv}")

    def after_setup(self):
        """Lifetimes of the library pipeline on the in-memory traces written."""
        bf = self.bf
        for path in self.paths:
            trace = self.written[str(path)]
            threshold = bf.dwell.auto_threshold(trace)
            hists = dict(zip(("on", "off"), bf.dwell.dwell_histogram(bf.dwell.binarize(trace, threshold))))
            fits = {
                state: bf.levmar.fit_exponential(bf.dwell.empirical_density(h))
                for state, h in hists.items()
            }
            truths = dict(zip(("on", "off"), trace.truth))
            self.expected.append((fits, hists, truths))
        self.written.clear()

    def run_round(self, r: int) -> Round:
        out = Round()
        checks = self.bf.checks
        for i, path in enumerate(self.paths):
            report_path = self.out / f"report{i}.json"
            argv = ["analyze", "--trace", str(path), "--method", "lm", "--report", str(report_path)]
            start = perf_counter()
            code = self.bf.cli.main(argv)
            out.op_s.append(perf_counter() - start)
            out.op_ref_s.append(self.clock.scale(out.op_s[-1]))
            out.attempted += 1
            fits, hists, truths = self.expected[i]
            # analyze exits with 2 when a fit did not converge.  A stall
            # (about 1 fit in 800 at 200 s) is counted, not failed: it falls
            # on some seeds only.
            stalls = sum(map(checks.lm_stalled, fits.values()))
            unconverged = sum(not fit.converged for fit in fits.values())
            out.lm_stalls += stalls
            if code != (2 if unconverged else 0) or unconverged > stalls:
                out.problems[i] = [f"analyze exited with {code}; {unconverged} fits did not converge"]
                continue
            report = json.loads(report_path.read_text())
            out.signature.append((report["tau_on_s"], report["tau_off_s"]))
            problems = checks.report_matches(report, fits)
            for state in ("on", "off"):
                problems += checks.lm_against_mle(report[f"tau_{state}_s"], hists[state])
                problems += checks.mle_against_truth(hists[state], truths[state])
            if problems:
                out.problems[i] = problems
        return out


WORKLOADS = {"sweep-2s": Sweep, "long-lm": LongLm, "trace-files": TraceFiles}


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_program() -> tuple[float, SimpleNamespace]:
    """Import blinkfit from ./src, timed; refuse any other copy."""
    package = SRC / "blinkfit" / "__init__.py"
    if not package.is_file():
        _fail(f"{package} not found: run from the root of a blinkfit checkout")
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import blinkfit.cli

    elapsed = perf_counter() - start
    if Path(blinkfit.__file__).resolve() != package.resolve():
        _fail(f"imported blinkfit from {blinkfit.__file__}, not {package}")
    from blinkfit import bench, dwell, emitter, ga, levmar, mfr

    import checks
    import probe

    return elapsed, SimpleNamespace(
        bench=bench, cli=blinkfit.cli, dwell=dwell, emitter=emitter, ga=ga,
        levmar=levmar, mfr=mfr, checks=checks, probe=probe,
    )


def child_import_s() -> float:
    """Time of `import blinkfit.cli` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_CHILD, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def timed(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


def run_rounds(workload, seconds: float) -> list[Round]:
    """Whole rounds until the measured time reaches `seconds`."""
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        rounds.append(workload.run_round(len(rounds)))
    return rounds


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine_facts() -> str:
    import numpy
    import scipy

    return (
        f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={numpy.__version__} scipy={scipy.__version__}"
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # The workloads run with workers=1; a BLAS thread pool on these small
    # matrices adds only scheduling noise.  Set before numpy loads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import_s, bf = import_program()
    OUT.mkdir(exist_ok=True)
    # Runs of one workload share its output directory, so they must not overlap.
    with open(OUT / f"{args.workload}.lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            _fail(f"another run of {args.workload} is using {OUT / args.workload}")
        return measure(args, import_s, bf)


def measure(args, import_s: float, bf) -> int:
    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    # A traced run reports no times, so it runs no reference loops.
    clock = RefClock(enabled=not args.trace)
    workload = WORKLOADS[args.workload](bf, args.seed, out_dir, clock)

    patches = bf.probe.Patches()
    tracer = bf.probe.Tracer()
    reference = None
    try:
        workload.observe(patches)
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            setups = [import_s + timed(workload.prepare)]
            for _ in range(SETUP_REPEATS - 1):
                setups.append(child_import_s() + timed(workload.prepare))
            if hasattr(workload, "after_setup"):
                workload.after_setup()
            if args.trace:
                reference = workload.run_round(0)
                bf.probe.trace_layers(patches, tracer, vars(bf))
            clock.start()
            rounds = run_rounds(workload, args.seconds)
    finally:
        patches.restore()

    done = rounds + ([reference] if reference else [])
    attempted = sum(r.attempted for r in done)
    failed = sum(r.failed for r in done)
    correct = failed == 0
    for r in done:
        for op, problems in r.problems.items():
            print(f"FAILED {args.workload} op {op}: " + "; ".join(problems))

    op_s = [t for r in rounds for t in r.op_s]
    op_ref_s = [t for r in rounds for t in r.op_ref_s]
    with open(out_dir / "ops.csv", "w") as fh:
        fh.write("op_s,op_ref_s\n")
        fh.writelines(f"{t!r},{ref!r}\n" for t, ref in zip(op_s, op_ref_s))
    print(f"fact: {machine_facts()}")
    print(f"fact: {args.workload} seed={args.seed} rounds={len(rounds)} ops={len(op_s)} "
          f"attempted={attempted} failed={failed} "
          f"lm_stalls={sum(r.lm_stalls for r in done)} (counted, not failed)")
    if args.workload == "sweep-2s":
        print(f"fact: results.csv sha256={rounds[0].signature[0]} (first sweep)")

    if args.trace:
        if reference.signature != rounds[0].signature:
            print("FAILED traced outputs differ from the untraced round")
            correct = False
        traced_s = sum(rounds[0].op_s)
        untraced_s = sum(reference.op_s)
        spent = sum(bf.probe.self_times(tracer.spans).values())
        print(f"fact: tracing overhead {traced_s - untraced_s:+.4f} s over the ops of the "
              f"first round ({traced_s / untraced_s - 1:+.2%}); spans={len(tracer.spans)}")
        print(f"fact: per-layer self times cover {spent / sum(op_s):.2%} of traced op time")
        tracer.write(out_dir / "spans.csv")
        values = bf.probe.layer_metrics(tracer.spans, len(op_s))
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _) in bf.probe.PER_LAYER.items()
        }
    else:
        print(f"fact: unscaled op_p90_s={quantile(op_s, 90):.6g} s; reference loop "
              f"median {statistics.median(clock.loops):.6g} s against REF_LOOP_S={REF_LOOP_S}")
        values = {
            "setup_s": statistics.median(setups),
            "op_p90_s": quantile(op_ref_s, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
