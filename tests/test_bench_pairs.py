"""tools/bench_pairs.py's summary and verdicts, on made-up runs.

A perf change is accepted or refused on these verdicts, so their edges
are pinned here: the direction a metric's `better` sets, the 9-of-10
pair count, a median gap against the parent's interquartile range, the
bound itself, and a parent spread too wide for the bound to settle.  The
traced per-layer runs, and the verdict line that main prints last, are
checked with perfbench stubbed out.
"""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
LOWER = {"name": "op_p90_s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "op_p90_s", "better": "higher", "bound": 0.25}


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs_of(values):
    return [{"metrics": {"op_p90_s": v}} for v in values]


def verdict(tool, parent, change, metric=LOWER):
    runs = {"parent": runs_of(parent), "change": runs_of(change)}
    summaries = {side: tool.summary(side_runs) for side, side_runs in runs.items()}
    return tool.judge(runs, summaries, metric)


# the parent's median is 1.0 and its quartiles 0.9 and 1.1 (inclusive method)
PARENT = [0.7, 0.8, 0.9, 0.9, 1.0, 1.0, 1.1, 1.1, 1.2, 1.3]


class TestSummary:
    def test_median_and_inclusive_quartiles(self, tool):
        out = tool.summary(runs_of([4.0, 1.0, 3.0, 2.0, 5.0]))
        assert out == {"op_p90_s": {"median": 3.0, "q1": 2.0, "q3": 4.0}}

    def test_every_metric(self, tool):
        runs = [{"metrics": {"a": float(i), "b": 10.0 - i}} for i in range(5)]
        out = tool.summary(runs)
        assert out["a"]["median"] == 2.0
        assert out["b"]["median"] == 8.0

    def test_parent_fixture(self, tool):
        assert tool.summary(runs_of(PARENT))["op_p90_s"] == pytest.approx(
            {"median": 1.0, "q1": 0.9, "q3": 1.1}
        )


class TestJudge:
    def test_better_sets_the_direction(self, tool):
        change = [v / 2 for v in PARENT]
        lower = verdict(tool, PARENT, change, LOWER)
        assert lower["change_won"] == 10 and lower["gain"]
        higher = verdict(tool, PARENT, change, HIGHER)
        assert higher["change_won"] == 0 and not higher["gain"]
        assert not higher["within_bound"]  # half of a higher-is-better metric
        up = verdict(tool, PARENT, [v * 2 for v in PARENT], HIGHER)
        assert up["change_won"] == 10 and up["gain"]

    @pytest.mark.parametrize("losses, gain", [(1, True), (2, False)])
    def test_nine_of_ten_wins(self, tool, losses, gain):
        # the change is far faster except on `losses` pairs, where it is slower
        change = [v / 2 for v in PARENT]
        for i in range(losses):
            change[i] = PARENT[i] + 1.0
        out = verdict(tool, PARENT, change)
        assert out["change_won"] == 10 - losses
        assert out["gain"] is gain

    @pytest.mark.parametrize("gap, gain", [(0.19, False), (0.21, True)])
    def test_median_gap_against_parent_iqr(self, tool, gap, gain):
        # the parent's interquartile range is 0.2; every pair is won either way
        change = [v - gap for v in PARENT]
        out = verdict(tool, PARENT, change)
        assert out["change_won"] == 10
        assert out["gain"] is gain

    @pytest.mark.parametrize(
        "metric, factor, within",
        [(LOWER, 1.25, True), (LOWER, 1.2500001, False),
         (HIGHER, 0.75, True), (HIGHER, 0.7499999, False)],
    )
    def test_within_bound_at_exactly_the_bound(self, tool, metric, factor, within):
        # a parent median of 1.0 makes 0.25 x median exact
        parent = [1.0] * 10
        out = verdict(tool, parent, [factor] * 10, metric)
        assert out["within_bound"] is within
        assert not out["gain"]
        assert not out["unresolved"]  # the parent's runs do not spread at all


class TestUnresolved:
    # PARENT's interquartile range is 0.2 x its median, and its runs span 0.7 to 1.3
    TIGHT = {"name": "op_p90_s", "better": "lower", "bound": 0.1}
    TIGHT_HIGHER = {"name": "op_p90_s", "better": "higher", "bound": 0.1}

    @pytest.mark.parametrize(
        "metric, change, unresolved",
        [
            (LOWER, PARENT, False),  # a spread of 0.2 is inside a 0.25 bound
            (TIGHT, PARENT, True),
            (TIGHT, [0.69] * 10, False),  # every change run beats every parent run
            (TIGHT, [0.7] * 10, True),  # a tie with the parent's best run is no win
            (TIGHT, [v - 0.21 for v in PARENT], True),  # a gain, yet 1.09 > 0.7
            (TIGHT_HIGHER, [1.31] * 10, False),
            (TIGHT_HIGHER, [1.29] * 10, True),
        ],
    )
    def test_parent_spread_against_the_bound(self, tool, metric, change, unresolved):
        assert verdict(tool, PARENT, change, metric)["unresolved"] is unresolved

    def test_a_gain_can_be_unresolved(self, tool):
        out = verdict(tool, PARENT, [v - 0.21 for v in PARENT], self.TIGHT)
        assert out["gain"] and out["within_bound"] and out["unresolved"]


class TestPerLayer:
    def test_one_traced_run_per_workload_and_side(self, tool, monkeypatch):
        calls = []

        def fake_run_once(checkout, workload, seed, seconds, trace=0):
            calls.append((checkout, workload, seed, seconds, trace))
            return {"seed": seed, "exit": 0, "metrics": {"ga.extract_tau.calls": 1.0}}

        monkeypatch.setattr(tool, "run_once", fake_run_once)
        checkouts = {"parent": Path("p"), "change": Path("c")}
        out = tool.per_layer(checkouts, ["sweep-2s", "long-lm"], 101)
        assert list(out) == ["sweep-2s", "long-lm"]
        for workload, sides in out.items():
            assert list(sides) == ["parent", "change"]
            for side, run in sides.items():
                assert run["metrics"] == {"ga.extract_tau.calls": 1.0}
                # --seconds 0 runs one round, so both sides count the same ops
                assert (checkouts[side], workload, 101, 0, 1) in calls
        assert len(calls) == 4

    @pytest.mark.parametrize("trace", [0, 1])
    def test_run_once_passes_the_trace_level(self, tool, monkeypatch, trace):
        seen = {}

        class Proc:
            returncode = 0
            stdout = 'fact: results.csv sha256=abc (first sweep)\n{"correct": true, ' \
                     '"attempted": 3, "failed": 0, "metrics": {"x": {"value": 2.0}}}\n'
            stderr = ""

        def fake_run(cmd, **kwargs):
            seen["cmd"] = cmd
            return Proc()

        monkeypatch.setattr(tool.subprocess, "run", fake_run)
        run = tool.run_once(Path("c"), "sweep-2s", 7, 30, trace=trace)
        assert seen["cmd"][-2:] == ["--trace", str(trace)]
        assert run == {"seed": 7, "exit": 0, "correct": True, "attempted": 3, "failed": 0,
                       "metrics": {"x": 2.0}, "results_hash": "results.csv sha256=abc"}


class TestCountersDiffer:
    def test_only_named_counters_that_differ(self, tool):
        same = {"ga.lloyd_iterations": 1698.75, "ga.accepted_per_generation": 0.25,
                "ga.kmeans_cluster.self_s": 0.030}
        moved = dict(same, **{"ga.lloyd_iterations": 1698.5, "ga.kmeans_cluster.self_s": 0.020})
        per_layer = {
            "sweep-2s": {"parent": {"metrics": same}, "change": {"metrics": moved}},
            "long-lm": {"parent": {"metrics": same}, "change": {"metrics": dict(same)}},
            "trace-files": {"parent": {"metrics": same}, "change": {"error": "boom"}},
        }
        names = ["ga.lloyd_iterations", "ga.accepted_per_generation"]
        # a self time is not a counter, so its move is not listed
        assert tool.counters_differ(per_layer, names) == [
            "sweep-2s ga.lloyd_iterations", "trace-files (no traced metrics)"]

    def test_main_compares_the_count_and_ratio_metrics(self, tool, monkeypatch, tmp_path,
                                                       capsys):
        parent_dir = tmp_path / "parent"

        def fake_run_once(checkout, workload, seed, seconds, trace=0):
            metrics = {"setup_s": 1.0, "op_p90_s": 1.0, "peak_rss_mb": 50.0}
            if trace:
                changed = checkout != parent_dir and workload == "sweep-2s"
                metrics = {"ga.kmeans_cluster.calls": 187.0 if changed else 186.5,
                           "ga.accepted_per_generation": 0.25,
                           "ga.kmeans_cluster.self_s": 0.02 if changed else 0.03}
            return {"seed": seed, "exit": 0, "correct": True, "attempted": 4, "failed": 0,
                    "metrics": metrics, "results_hash": f"results.csv sha256={seed}"}

        class Git:
            stdout = "abc123\n"

        monkeypatch.setattr(tool, "run_once", fake_run_once)
        monkeypatch.setattr(tool, "export", lambda rev, into: parent_dir)
        monkeypatch.setattr(tool.subprocess, "run", lambda *a, **k: Git())
        out = tmp_path / "bench.json"
        assert tool.main(["--parent", "HEAD", "--out", str(out)]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.endswith("; counters differ: sweep-2s ga.kmeans_cluster.calls")
        assert json.loads(out.read_text())["counters_differ"] == [
            "sweep-2s ga.kmeans_cluster.calls"]


class TestVerdictLine:
    def test_main_prints_the_verdict_last(self, tool, monkeypatch, tmp_path, capsys):
        # the change is slow on long-lm, fast to set up trace-files and
        # wrong once on sweep-2s; every other metric equals the parent's
        parent_dir = tmp_path / "parent"

        def fake_run_once(checkout, workload, seed, seconds, trace=0):
            metrics = {"setup_s": 1.0, "op_p90_s": 1.0, "peak_rss_mb": 50.0}
            correct = True
            if checkout != parent_dir:
                if workload == "long-lm":
                    metrics["op_p90_s"] = 2.0
                elif workload == "trace-files":
                    metrics["setup_s"] = 0.5
                elif seed == 101:
                    correct = False
            return {"seed": seed, "exit": 0, "correct": correct, "attempted": 4, "failed": 0,
                    "metrics": metrics, "results_hash": f"results.csv sha256={seed}"}

        class Git:
            stdout = "abc123\n"

        monkeypatch.setattr(tool, "run_once", fake_run_once)
        monkeypatch.setattr(tool, "export", lambda rev, into: parent_dir)
        monkeypatch.setattr(tool.subprocess, "run", lambda *a, **k: Git())
        out = tmp_path / "bench.json"
        assert tool.main(["--parent", "HEAD", "--out", str(out)]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == ("verdict: out of bound: long-lm op_p90_s; unresolved: none; "
                        "gain: trace-files setup_s; not all correct: sweep-2s; "
                        "results_hashes_equal: true; counters differ: none")
        assert tool.verdict_line(json.loads(out.read_text())) == last

    def test_clean_run_and_a_run_without_metrics(self, tool):
        fine = {"within_bound": True, "gain": False, "unresolved": False}
        wide = dict(fine, unresolved=True)
        report = {
            "workloads": {"sweep-2s": {"all_correct": True,
                                       "verdict": {"op_p90_s": fine, "setup_s": wide}},
                          "long-lm": {"runs": {}}},
            "results_hashes_equal": False,
            "counters_differ": [],
        }
        assert tool.verdict_line(report) == (
            "verdict: out of bound: none; unresolved: sweep-2s setup_s; gain: none; "
            "not all correct: long-lm; results_hashes_equal: false; counters differ: none")
