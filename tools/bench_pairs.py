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
Runs are sequential, one process at a time.

The JSON written holds every run's end-to-end metrics, `correct`,
`attempted` and `failed`; per workload and side the median and quartiles
of each metric; the pairs the change won; the hash lines; the traced
runs under `per_layer[workload][side]`; and the machine facts the runs
printed.  Per workload and metric it also judges the untraced runs:

- `gain`: the change won at least 9 of 10 pairs, and its median is
  better than the parent's by more than the parent's interquartile range;
- `within_bound`: the change's median is worse than the parent's by at
  most the metric's `bound` from BENCHMARK.json, as a fraction of the
  parent's median.

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
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(101, 111)  # one alternating pair per seed and workload
HASH_SEEDS = (1, 2, 3)


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


def summary(runs: list[dict]) -> dict:
    """Median and quartiles of each end-to-end metric over a side's runs."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"median": q2, "q1": q1, "q3": q3}
    return out


def judge(runs: dict, summaries: dict, metric: dict) -> dict:
    """Gain and bound verdicts for one end-to-end metric over one workload's pairs."""
    name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
    parent, change = summaries["parent"][name], summaries["change"][name]
    won = sum(sign * (c["metrics"][name] - p["metrics"][name]) < 0
              for p, c in zip(runs["parent"], runs["change"]))
    gap = sign * (parent["median"] - change["median"])
    return {
        "change_won": won,
        "gain": 10 * won >= 9 * len(runs["parent"]) and gap > parent["q3"] - parent["q1"],
        "within_bound": sign * (change["median"] - parent["median"])
        <= metric["bound"] * parent["median"],
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
    report["results_hashes"] = hashes
    report["results_hashes_equal"] = hashes["parent"] == hashes["change"]
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
