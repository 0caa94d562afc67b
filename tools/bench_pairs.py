"""Run perfbench on a parent commit and on this checkout, in alternating pairs.

    python3 tools/bench_pairs.py --parent 8fa6d19 --out BENCH_10.json

The parent's committed files are exported with `git archive` into a
temporary directory; the change is the checkout this script sits in, as
its files are now.  For each workload in BENCHMARK.json and each of
SEEDS, `perfbench/run.py --trace 0` runs once on each side for the
benchmark's run_seconds, the side that goes first alternating from pair
to pair.  Then `sweep-2s` runs on HASH_SEEDS on both sides for the
`results.csv sha256=` lines that show the output did not change.  Last,
each workload runs once per side with `--trace 1 --seconds 0` at the first
seed, for the per-layer counters and self times: `--seconds 0` is exactly
one round, so both sides' per-op counters average over the same ops.  A
traced run reports no end-to-end metrics, so it is judged by nothing.
Then `import blinkfit.cli` is timed in IMPORT_RUNS fresh interpreters per
side, the sides alternating, with the child perfbench times for it: on a
workload whose set-up does nothing else, `setup_s` is that import, so
these times tell an import regression apart from the set-up spread.
Without cached bytecode (PYTHONDONTWRITEBYTECODE=1) that import compiles
every module, so `compile()` of every `src/blinkfit/*.py` is also timed,
COMPILE_RUNS times per side in this process, the sides alternating: it
shows whether a source change moved the import's compile step.  The
lines of every `src/blinkfit/*.py`, as `wc -l` counts them, are recorded
per side too.  Last, one fresh interpreter per side runs one 1000 s LM
trial under `tracemalloc` and prints its peak: the bytes numpy and
Python hold live, so a `peak_rss_mb` move can be told apart into live
bytes and the C heap's layout.  Runs are sequential, one process at a
time.

The JSON written holds every run's end-to-end metrics, `correct`,
`attempted` and `failed`; per workload and side the median and quartiles
of each metric; the pairs the change won; the hash lines; the traced
runs under `per_layer[workload][side]`; the import and compile times
under `import_s[side]` and `compile_s[side]`, with their medians and
quartiles; the source lines per module and in total under
`source_lines[side]`; the trial's `tracemalloc` peak in MB under
`trial_peak_mb[side]`; and the machine facts the runs printed.  Per
workload and metric it also judges the untraced runs:

- `gain`: the change won at least 9 of 10 pairs, and its median is
  better than the parent's by more than the parent's interquartile range;
- `within_bound`: the change's median is worse than the parent's by at
  most the metric's `bound` from BENCHMARK.json, as a fraction of the
  parent's median;
- `unresolved`: the parent's interquartile range is wider than `bound` x
  its median, so its runs spread too widely for a median inside the bound
  to show no regression, and not every change run beats every parent run.

The traced runs are compared too: every per-layer metric that
BENCHMARK.json gives a count or ratio unit must read the same on both
sides of a workload, as it does for a change that leaves the output
bit-exact.  Those that differ are listed under `counters_differ`.

The import and compile times' medians and quartiles, the source line
totals and the trial peaks are printed next, and the last line printed
is the verdict: every (workload, metric) out of its bound, unresolved
or with a gain, every workload whose runs were not all correct or gave
no metrics, whether the hashes are equal, and every (workload, counter)
that differs.

It needs only the standard library and git; perfbench itself needs what
the program needs.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(101, 111)  # one alternating pair per seed and workload
HASH_SEEDS = (1, 2, 3)
IMPORT_RUNS = 21  # fresh interpreters per side
COMPILE_RUNS = 21  # compiles of the package's sources per side
# perfbench/run.py's _IMPORT_CHILD: argv[1] is the checkout's src directory
IMPORT_CHILD = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import blinkfit.cli; print(time.perf_counter() - t)"
)
# argv[1] is the checkout's src directory; the import is not traced
TRIAL_PEAK_CHILD = (
    "import sys, tracemalloc; sys.path.insert(0, sys.argv[1]); "
    "from blinkfit import bench; tracemalloc.start(); "
    "bench.run_trial(bench.default_scenario(), 1000.0, 'lm', 0); "
    "print(tracemalloc.get_traced_memory()[1] / 1e6)"
)


def export(rev: str, into: Path) -> Path:
    """Unpack the files committed at rev into a new directory under into."""
    dest = into / "parent"
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One perfbench run at the given trace level; its result line, hash and machine facts."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    run = {"seed": seed, "exit": proc.returncode}
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        run["error"] = (proc.stderr or proc.stdout)[-2000:]
        return run
    run.update(
        correct=result["correct"],
        attempted=result["attempted"],
        failed=result["failed"],
        metrics={name: m["value"] for name, m in result["metrics"].items()},
    )
    for line in lines:
        if match := re.match(r"fact: (results\.csv sha256=\w+)", line):
            run["results_hash"] = match.group(1)
        elif line.startswith("fact: nproc="):
            run["machine"] = line.removeprefix("fact: ")
    return run


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summary(runs: list[dict]) -> dict:
    """Median and quartiles of each end-to-end metric over a side's runs."""
    return {name: quartiles([r["metrics"][name] for r in runs]) for name in runs[0]["metrics"]}


def import_times(checkouts: dict, runs: int = IMPORT_RUNS) -> dict:
    """Seconds of `import blinkfit.cli` in runs fresh interpreters per side.

    The side that goes first alternates from run to run.  Each side gets
    its times under "runs", with their median and quartiles.
    """
    times = {side: [] for side in checkouts}
    for i in range(runs):
        for side in list(checkouts)[:: 1 if i % 2 == 0 else -1]:
            done = subprocess.run(
                [sys.executable, "-c", IMPORT_CHILD, str(checkouts[side] / "src")],
                capture_output=True, text=True, check=True,
            )
            times[side].append(float(done.stdout.split()[-1]))
    return {side: dict(quartiles(values), runs=values) for side, values in times.items()}


def compile_times(checkouts: dict, runs: int = COMPILE_RUNS) -> dict:
    """Seconds to compile() every src/blinkfit/*.py, runs times per side.

    The sources are read once; each run compiles all of a side's files as
    an import does (dont_inherit, so this script's future flags do not
    leak in).  The side that goes first alternates from run to run, and
    each side gets its times under "runs", with their median and quartiles.
    """
    sources = {side: [(str(path), path.read_text())
                      for path in sorted((checkout / "src" / "blinkfit").glob("*.py"))]
               for side, checkout in checkouts.items()}
    times = {side: [] for side in checkouts}
    for i in range(runs):
        for side in list(checkouts)[:: 1 if i % 2 == 0 else -1]:
            start = time.perf_counter()
            for path, text in sources[side]:
                compile(text, path, "exec", dont_inherit=True)
            times[side].append(time.perf_counter() - start)
    return {side: dict(quartiles(values), runs=values) for side, values in times.items()}


def trial_peaks(checkouts: dict) -> dict:
    """MB at the tracemalloc peak of one 1000 s LM trial, in a fresh interpreter per side."""
    out = {}
    for side, checkout in checkouts.items():
        done = subprocess.run(
            [sys.executable, "-c", TRIAL_PEAK_CHILD, str(checkout / "src")],
            capture_output=True, text=True, check=True,
        )
        out[side] = float(done.stdout.split()[-1])
    return out


def source_lines(checkouts: dict) -> dict:
    """Newlines in each src/blinkfit/*.py per side, as `wc -l` counts them, and their total."""
    out = {}
    for side, checkout in checkouts.items():
        modules = {path.name: path.read_bytes().count(b"\n")
                   for path in sorted((checkout / "src" / "blinkfit").glob("*.py"))}
        out[side] = {"modules": modules, "total": sum(modules.values())}
    return out


def times_line(name: str, times: dict) -> str:
    return f"{name}: " + ", ".join(
        f"{side} {q['median']:.4f} s ({q['q1']:.4f}-{q['q3']:.4f})" for side, q in times.items()
    )


def judge(runs: dict, summaries: dict, metric: dict) -> dict:
    """Gain and bound verdicts for one end-to-end metric over one workload's pairs."""
    name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
    parent, change = summaries["parent"][name], summaries["change"][name]
    won = sum(sign * (c["metrics"][name] - p["metrics"][name]) < 0
              for p, c in zip(runs["parent"], runs["change"]))
    gap = sign * (parent["median"] - change["median"])
    spread = parent["q3"] - parent["q1"]
    beats_all = all(sign * (c["metrics"][name] - p["metrics"][name]) < 0
                    for p in runs["parent"] for c in runs["change"])
    return {
        "change_won": won,
        "gain": 10 * won >= 9 * len(runs["parent"]) and gap > spread,
        "within_bound": sign * (change["median"] - parent["median"])
        <= metric["bound"] * parent["median"],
        "unresolved": spread > metric["bound"] * parent["median"] and not beats_all,
    }


def pairs(checkouts: dict, workload: str, seeds, seconds: float, metrics: list) -> dict:
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(checkouts[side], workload, seed, seconds)
            runs[side].append(run)
            print(f"{workload} seed {seed} {side}: {run.get('metrics', run)}", flush=True)
    entry = {"seeds": list(seeds), "runs": runs}
    if all("metrics" in r for side in runs.values() for r in side):
        entry["summary"] = {side: summary(side_runs) for side, side_runs in runs.items()}
        entry["verdict"] = {m["name"]: judge(runs, entry["summary"], m) for m in metrics}
        entry["all_correct"] = all(r["correct"] and r["failed"] == 0
                                   for side in runs.values() for r in side)
    return entry


def per_layer(checkouts: dict, workloads: list, seed: int) -> dict:
    """One traced one-round run per workload and side, keyed [workload][side]."""
    out = {}
    for workload in workloads:
        out[workload] = {}
        for side, checkout in checkouts.items():
            run = run_once(checkout, workload, seed, 0, trace=1)
            out[workload][side] = run
            print(f"traced {workload} seed {seed} {side}: exit {run['exit']}", flush=True)
    return out


def counters_differ(per_layer: dict, names: list) -> list[str]:
    """"<workload> <counter>" for each named counter its two traced runs disagree on.

    A workload whose traced run on either side gave no metrics is listed
    as a whole.
    """
    out = []
    for workload, sides in per_layer.items():
        parent, change = sides["parent"].get("metrics"), sides["change"].get("metrics")
        if parent is None or change is None:
            out.append(f"{workload} (no traced metrics)")
            continue
        out.extend(f"{workload} {name}" for name in names
                   if parent.get(name) != change.get(name))
    return out


def verdict_line(report: dict) -> str:
    """The report's verdicts on one line, naming only what needs a look."""
    over, unresolved, gain, broken = [], [], [], []
    for workload, entry in report["workloads"].items():
        if not entry.get("all_correct"):
            broken.append(workload)
        for metric, v in entry.get("verdict", {}).items():
            if not v["within_bound"]:
                over.append(f"{workload} {metric}")
            if v["unresolved"]:
                unresolved.append(f"{workload} {metric}")
            if v["gain"]:
                gain.append(f"{workload} {metric}")
    return (f"verdict: out of bound: {', '.join(over) or 'none'}; "
            f"unresolved: {', '.join(unresolved) or 'none'}; "
            f"gain: {', '.join(gain) or 'none'}; "
            f"not all correct: {', '.join(broken) or 'none'}; "
            f"results_hashes_equal: {str(report['results_hashes_equal']).lower()}; "
            f"counters differ: {', '.join(report['counters_differ']) or 'none'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    parent_rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.parent],
                                capture_output=True, text=True, check=True).stdout.strip()
    dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                           capture_output=True, text=True, check=True).stdout.strip()
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=True).stdout.strip()

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkouts = {"parent": export(parent_rev, Path(tmp)), "change": ROOT}
        report = {
            "parent": parent_rev,
            "change": head + (" plus uncommitted changes" if dirty else ""),
            "seconds": seconds,
            "workloads": {w: pairs(checkouts, w, SEEDS, seconds, bench["end_to_end"])
                          for w in workloads},
        }
        hashes = {"parent": {}, "change": {}}
        for seed in HASH_SEEDS:
            for side in hashes:
                run = run_once(checkouts[side], "sweep-2s", seed, seconds)
                hashes[side][str(seed)] = run.get("results_hash", run.get("error"))
                print(f"hash seed {seed} {side}: {hashes[side][str(seed)]}", flush=True)
                report.setdefault("machine", run.get("machine"))
        report["per_layer"] = per_layer(checkouts, workloads, SEEDS[0])
        report["import_s"] = import_times(checkouts)
        report["compile_s"] = compile_times(checkouts)
        report["source_lines"] = source_lines(checkouts)
        report["trial_peak_mb"] = trial_peaks(checkouts)
    report["results_hashes"] = hashes
    report["results_hashes_equal"] = hashes["parent"] == hashes["change"]
    counters = [m["name"] for m in bench["per_layer"] if m["unit"] in ("count", "ratio")]
    report["counters_differ"] = counters_differ(report["per_layer"], counters)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(times_line("import_s", report["import_s"]))
    print(times_line("compile_s", report["compile_s"]))
    print("source_lines: " + ", ".join(
        f"{side} {lines['total']}" for side, lines in report["source_lines"].items()))
    print("trial_peak_mb: " + ", ".join(
        f"{side} {mb:.2f} MB" for side, mb in report["trial_peak_mb"].items()))
    print(verdict_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
