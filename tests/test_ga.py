import itertools
import json
import math

import numpy as np
import pytest

from blinkfit import ga
from blinkfit.dwell import DwellHistogram, auto_threshold, binarize, dwell_histogram
from blinkfit.emitter import EmitterModel, generate_trace
from blinkfit.errors import DegenerateClusterError, InsufficientDataError
from blinkfit.estimate import load_fields
from blinkfit.ga import (
    K_MAX,
    K_PATIENCE,
    MUTATION_RATE,
    SUBSET_FRACTION,
    Clustering,
    GaConfig,
    _pairwise_sq,
    _seed_indices,
    crossover_clone_exchange,
    extract_tau,
    heuristic_estimate,
    kmeans_cluster,
    mutate,
    run_ga,
    silhouette,
    spawn_individual,
)

LN2 = math.log(2.0)


def hist(pairs, bin_width=1e-3, state="on"):
    idx, occ = zip(*sorted(pairs.items()))
    return DwellHistogram(state, bin_width, np.array(idx), np.array(occ))


def brute_force_two_partition(points):
    """Oracle: exhaustive optimal 2-partition by total squared distance."""
    pts = np.asarray(points, dtype=float)
    best = None
    n = len(pts)
    for assignment in itertools.product([0, 1], repeat=n):
        if len(set(assignment)) < 2:
            continue
        phi = 0.0
        for j in (0, 1):
            members = pts[np.array(assignment) == j]
            phi += ((members - members.mean(axis=0)) ** 2).sum()
        if best is None or phi < best:
            best = phi
    return best


def best_of_runs(pts, k, rng, runs=8):
    """Lowest-potential clustering of several runs drawn from one generator."""
    return min((kmeans_cluster(pts, k, rng) for _ in range(runs)), key=lambda c: c.potential)


class TestHeuristic:
    def test_decided_formula(self):
        h = hist({1: 2, 3: 2})
        # c1 = 2 ms, c2 = 3/ln5 ms, c3 = 1 ms (tie broken to shortest)
        expected = np.median([2e-3, 3e-3 / math.log(5.0), 1e-3])
        assert heuristic_estimate(h, (1e-3, 100e-3)) == pytest.approx(expected)

    def test_clamped_to_range(self):
        h = hist({1: 5})
        assert heuristic_estimate(h, (10e-3, 100e-3)) == 10e-3

    def test_long_trace_seed_quality(self):
        model = EmitterModel(tau_on=15e-3, tau_off=45e-3)
        trace = generate_trace(model, 200.0, 1e-3, "poisson", rng=23)
        hist_on, _ = dwell_histogram(binarize(trace, auto_threshold(trace)))
        tau0 = heuristic_estimate(hist_on, (1e-3, 100e-3))
        assert 5e-3 < tau0 < 45e-3

    def test_empty_rejected(self):
        h = DwellHistogram("on", 1e-3, np.array([], dtype=int), np.array([], dtype=int))
        with pytest.raises(ValueError):
            heuristic_estimate(h, (1e-3, 100e-3))


class TestSpawn:
    def test_cardinality(self):
        h = hist({i: 1 for i in range(1, 11)})
        ind = spawn_individual(h, np.random.default_rng(0))
        assert len(ind) == math.ceil(SUBSET_FRACTION * 10) == 7
        assert np.all(np.diff(ind) > 0)  # sorted and distinct
        assert 0 <= ind.min() and ind.max() < len(h)

    def test_full_fraction(self):
        # ceil(0.7 * 3) = 3: a 3-row histogram gives a saturated individual
        h = hist({1: 1, 2: 1, 3: 1})
        ind = spawn_individual(h, np.random.default_rng(0))
        np.testing.assert_array_equal(ind, np.arange(len(h)))

    def test_seeds_differ(self):
        h = hist({i: 1 for i in range(1, 11)})
        a = spawn_individual(h, np.random.default_rng(1))
        b = spawn_individual(h, np.random.default_rng(2))
        assert not np.array_equal(a, b)

    def test_empty_histogram(self):
        h = DwellHistogram("on", 1e-3, np.array([], dtype=int), np.array([], dtype=int))
        with pytest.raises(InsufficientDataError):
            spawn_individual(h, np.random.default_rng(0))


def seed_points(pts, k, rng):
    """The K-means++ seed points kmeans_cluster starts from."""
    return pts[_seed_indices(_pairwise_sq(pts), k, rng)]


class TestKmeansPP:
    def test_saturation(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        centroids = seed_points(pts, 3, np.random.default_rng(0))
        assert {tuple(c) for c in centroids} == {tuple(p) for p in pts}

    def test_identical_points(self):
        pts = np.ones((5, 2))
        centroids = seed_points(pts, 3, np.random.default_rng(0))
        np.testing.assert_array_equal(centroids, np.ones((3, 2)))

    def test_separated_blobs_both_seeded(self):
        rng = np.random.default_rng(11)
        blob_a = rng.normal(0.0, 0.05, (20, 2))
        blob_b = rng.normal(5.0, 0.05, (20, 2)) + np.array([5.0, 0.0])
        pts = np.vstack([blob_a, blob_b])
        hits = 0
        runs = 1000
        for seed in range(runs):
            centroids = seed_points(pts, 2, np.random.default_rng(seed))
            sides = {c[0] > 2.5 for c in centroids}
            hits += len(sides) == 2
        assert hits / runs >= 0.99

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            kmeans_cluster(np.zeros((2, 2)), 3, np.random.default_rng(0))


class TestKmeans:
    def test_two_pair_example(self):
        pts = np.array([[1.0, 10.0], [2.0, 9.0], [10.0, 1.0], [11.0, 2.0]])
        result = best_of_runs(pts, 2, np.random.default_rng(0))
        groups = {tuple(sorted(map(tuple, pts[result.assignment == j]))) for j in (0, 1)}
        assert groups == {
            ((1.0, 10.0), (2.0, 9.0)),
            ((10.0, 1.0), (11.0, 2.0)),
        }
        cents = {tuple(c) for c in result.centroids}
        assert cents == {(1.5, 9.5), (10.5, 1.5)}

    def test_single_cluster_closed_form(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(40, 2))
        result = kmeans_cluster(pts, 1, rng)
        np.testing.assert_allclose(result.centroids[0], pts.mean(axis=0))
        assert result.potential == pytest.approx(((pts - pts.mean(axis=0)) ** 2).sum())

    def test_phi_monotone_and_final_below_init(self):
        rng = np.random.default_rng(8)
        for seed in range(20):
            pts = np.random.default_rng(seed).normal(size=(30, 2))
            result = kmeans_cluster(pts, 3, rng)
            phis = result.phi_history
            assert all(b <= a + 1e-9 for a, b in zip(phis, phis[1:]))
            assert result.potential <= phis[0] + 1e-9

    def test_fewer_than_k_distinct_points_raise(self):
        # small grids make duplicate points and tied centroids common
        rng = np.random.default_rng(0)
        outcomes = {True: 0, False: 0}
        for seed in range(5000):
            m = int(rng.integers(3, 12))
            pts = rng.integers(0, 3, size=(m, 2)).astype(float)
            k = int(rng.integers(1, m + 1))
            enough = len(np.unique(pts, axis=0)) >= k
            outcomes[enough] += 1
            if enough:
                result = kmeans_cluster(pts, k, np.random.default_rng(seed))
                assert np.bincount(result.assignment, minlength=k).all()
            else:
                with pytest.raises(ValueError, match="distinct points"):
                    kmeans_cluster(pts, k, np.random.default_rng(seed))
        assert min(outcomes.values()) > 1000

    def test_matches_brute_force_on_four_points(self):
        # fixed 100-instance random suite, phi within 1e-9 of exhaustive optimum
        for seed in range(100):
            pts = np.random.default_rng(1000 + seed).uniform(0.0, 10.0, size=(4, 2))
            result = best_of_runs(pts, 2, np.random.default_rng(seed))
            assert result.potential == pytest.approx(
                brute_force_two_partition(pts), abs=1e-9
            )


class TestSilhouette:
    def test_two_tight_pairs(self):
        # points 0, 1 vs 10, 11 on a line; hand evaluation of each branch
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
        clustering = Clustering(
            k=2,
            centroids=np.array([[0.5, 0.0], [10.5, 0.0]]),
            assignment=np.array([0, 0, 1, 1]),
            potential=1.0,
            points=pts,
        )
        scores = silhouette(clustering)
        assert scores[0] == pytest.approx(1.0 - 1.0 / 10.5)
        assert scores[1] == pytest.approx(1.0 - 1.0 / 9.5)
        expected_mean = np.mean(
            [1 - 1 / 10.5, 1 - 1 / 9.5, 1 - 1 / 9.5, 1 - 1 / 10.5]
        )
        assert scores.mean() == pytest.approx(expected_mean)

    def test_equal_distances_zero(self):
        # a(i) == b(i) for the first point by construction
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        clustering = Clustering(
            k=2,
            centroids=np.array([[1.0, 0.0], [0.0, 2.0]]),
            assignment=np.array([0, 0, 1]),
            potential=1.0,
            points=pts,
        )
        scores = silhouette(clustering)
        assert scores[0] == 0.0  # a = b = 2
        assert scores[2] == 0.0  # singleton cluster

    def test_negative_branch(self):
        # point closer to the other cluster than to its own
        pts = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 1.0], [2.0, 1.0]])
        clustering = Clustering(
            k=2,
            centroids=np.array([[2.0, 0.0], [1.5, 1.0]]),
            assignment=np.array([0, 0, 1, 1]),
            potential=1.0,
            points=pts,
        )
        scores = silhouette(clustering)
        a0 = 4.0
        b0 = (math.sqrt(2.0) + math.sqrt(5.0)) / 2.0
        assert scores[0] == pytest.approx(b0 / a0 - 1.0)
        assert scores[0] < 0

    def test_range_bound_on_random_clusterings(self):
        for seed in range(300):
            rng = np.random.default_rng(seed)
            m = rng.integers(4, 20)
            k = rng.integers(2, 4)
            pts = rng.normal(size=(m, 2))
            labels = rng.integers(0, k, size=m)
            for j in range(k):  # force non-empty clusters
                labels[j % m] = j
            clustering = Clustering(
                k=int(k),
                centroids=np.zeros((k, 2)),
                assignment=labels,
                potential=0.0,
                points=pts,
            )
            s = silhouette(clustering)
            assert np.all(s >= -1.0 - 1e-12)
            assert np.all(s <= 1.0 + 1e-12)

    def test_needs_two_clusters(self):
        clustering = Clustering(
            k=1,
            centroids=np.zeros((1, 2)),
            assignment=np.zeros(3, dtype=int),
            potential=0.0,
            points=np.zeros((3, 2)),
        )
        with pytest.raises(ValueError):
            silhouette(clustering)

    def test_malformed_clusterings_raise_value_error(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [1.0, 1.0], [1.1, 1.0]])
        labels = np.array([0, 0, 1, 1])
        cases = [
            Clustering(k=2, centroids=np.zeros((2, 2)), assignment=labels, potential=0.0),
            Clustering(k=2, centroids=np.zeros((2, 2)), assignment=labels[:3],
                       potential=0.0, points=pts),
            Clustering(k=2, centroids=np.zeros((2, 2)), assignment=np.array([0, 0, 1, 2]),
                       potential=0.0, points=pts),
        ]
        for clustering in cases:
            with pytest.raises(ValueError):
                silhouette(clustering)


def flagged_slots(size, seed):
    """How many slots mutate flags: its first draw, replayed."""
    return int((np.random.default_rng(seed).random(size) < MUTATION_RATE).sum())


class TestCrossoverMutate:
    def test_clones_are_parent_copies_and_mutants_are_new(self):
        h = hist({i: i + 1 for i in range(1, 201)})
        ind = spawn_individual(h, np.random.default_rng(0))  # 140 of 200 rows
        for seed in range(20):
            a, b = crossover_clone_exchange(ind, np.random.default_rng(seed))
            np.testing.assert_array_equal(a, ind)
            np.testing.assert_array_equal(b, ind)
            assert not np.shares_memory(a, ind)
            assert not np.shares_memory(b, ind)
            assert not np.shares_memory(a, b)
            out = mutate(a, h, np.random.default_rng(seed))
            np.testing.assert_array_equal(a, ind)  # mutate leaves its input alone
            assert len(out) == len(ind)
            assert np.all(np.diff(out) > 0)  # sorted and distinct
            assert 0 <= out.min() and out.max() < len(h)
            # the pool (60 unused rows) outlasts the flagged slots, so every
            # flagged slot must bring in an index the parent did not hold
            flagged = flagged_slots(len(ind), seed)
            assert flagged <= len(h) - len(ind)
            assert len(np.setdiff1d(out, ind)) == flagged

    def test_single_point_individual(self):
        ind = np.array([3])
        a, b = crossover_clone_exchange(ind, np.random.default_rng(0))
        np.testing.assert_array_equal(a, ind)
        np.testing.assert_array_equal(b, ind)

    def test_mutate_without_flags_is_identity(self):
        h = hist({i: 1 for i in range(1, 11)})
        ind = spawn_individual(h, np.random.default_rng(3))
        unflagged = [seed for seed in range(20) if flagged_slots(len(ind), seed) == 0]
        assert unflagged
        for seed in unflagged:
            np.testing.assert_array_equal(mutate(ind, h, np.random.default_rng(seed)), ind)

    def test_mutate_saturated_histogram_is_identity(self):
        h = hist({1: 1, 2: 1, 3: 1})
        ind = spawn_individual(h, np.random.default_rng(0))
        np.testing.assert_array_equal(ind, np.arange(3))
        # no unused row is left to swap in, flagged or not
        assert any(flagged_slots(len(ind), seed) for seed in range(50))
        for seed in range(50):
            np.testing.assert_array_equal(mutate(ind, h, np.random.default_rng(seed)), ind)

    def test_mutate_binomial_mean(self):
        h = hist({i: 1 for i in range(1, 201)})
        ind = spawn_individual(h, np.random.default_rng(7))  # 140 points
        total = 0
        runs = 2000
        for seed in range(runs):
            out = mutate(ind, h, np.random.default_rng(seed))
            total += len(np.setdiff1d(out, ind))
        assert total / runs == pytest.approx(len(ind) * MUTATION_RATE, abs=0.5)

    def test_mutated_points_stay_in_histogram(self):
        h = hist({i: 2 * i for i in range(1, 20)})
        ind = spawn_individual(h, np.random.default_rng(1))
        for seed in range(20):
            out = mutate(ind, h, np.random.default_rng(seed))
            assert 0 <= out.min() and out.max() < len(h)
            assert len(np.unique(out)) == len(ind)


class TestExtractTau:
    def test_halving_counts(self):
        # counts halve from the weighted-median point to the longest point
        pts = np.array([[4.8045, 50.0], [6.0, 25.0]])
        tau = extract_tau(pts, 1e-3)
        assert tau == pytest.approx(4.8045e-3 / (LN2 * LN2), rel=1e-12)

    def test_decade_counts(self):
        pts = np.array([[15.96, 100.0], [20.0, 10.0]])
        tau = extract_tau(pts, 1e-3)
        assert tau == pytest.approx(15.96e-3 / (LN2 * math.log(10.0)), rel=1e-12)
        assert tau == pytest.approx(10e-3, rel=0.01)

    def test_degenerate_counts(self):
        pts = np.array([[3.0, 7.0], [9.0, 7.0]])
        with pytest.raises(DegenerateClusterError):
            extract_tau(pts, 1e-3)

    def test_needs_two_distinct_durations(self):
        with pytest.raises(ValueError):
            extract_tau(np.array([[3.0, 7.0], [3.0, 2.0]]), 1e-3)

    def test_positive_counts_required(self):
        with pytest.raises(ValueError):
            extract_tau(np.array([[3.0, 0.0], [5.0, 2.0]]), 1e-3)

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, math.nan], [2, 3]],
            [[1, 5], [2, math.nan], [3, 1]],
            [[1, math.inf], [2, 3]],
            [[1, 5], [math.nan, 2], [3, 1]],
            [[1, 9], [2, 4], [math.inf, 1]],
            np.array([[1.0, 9.0], [np.nan, 4.0], [3.0, 1.0]]),
        ],
    )
    def test_non_finite_values_refused(self, rows):
        with pytest.raises(ValueError, match="finite"):
            extract_tau(rows, 1e-3)

    @pytest.mark.parametrize(
        "rows",
        [np.array([3.0, 7.0, 9.0]), np.array([[3.0, 7.0, 1.0], [9.0, 2.0, 1.0]])],
        ids=["one-dimensional", "three-columns"],
    )
    def test_malformed_shape_refused(self, rows):
        with pytest.raises(ValueError, match="at least two \\(duration, count\\) points"):
            extract_tau(rows, 1e-3)

    @pytest.mark.parametrize("tau_ms", [5.0, 15.0, 45.0])
    def test_exponential_histogram_oracle(self, tau_ms):
        # exact decaying histogram; head cluster spanning a factor >= 2 in
        # counts.  Oracle: the generating constant itself.
        tau = tau_ms * 1e-3
        c0 = 100.0
        durations = np.arange(1, int(round(tau_ms)) + 1)
        counts = np.rint(c0 * np.exp(-durations / tau_ms))
        cluster = np.column_stack([durations, counts])
        assert counts[0] / counts[-1] >= 2.0
        est = extract_tau(cluster, 1e-3)
        assert est == pytest.approx(tau, rel=0.2)


class TestRunGa:
    def make_hist(self, duration=200.0, seed=42, state="on"):
        model = EmitterModel(tau_on=15e-3, tau_off=45e-3)
        trace = generate_trace(model, duration, 1e-3, "poisson", rng=seed)
        hist_on, hist_off = dwell_histogram(binarize(trace, auto_threshold(trace)))
        return hist_on if state == "on" else hist_off

    def test_determinism(self):
        h = self.make_hist(duration=20.0)
        cfg = GaConfig(tau_range=(1e-3, 100e-3), max_iterations=120)
        a = run_ga(h, cfg, rng=5)
        b = run_ga(h, cfg, rng=5)
        assert a.tau_hat == b.tau_hat
        assert a.diagnostics["estimate_log"] == b.diagnostics["estimate_log"]

    def test_long_trace_accuracy(self):
        cfg = GaConfig(tau_range=(1e-3, 100e-3))
        errs = []
        for seed in range(8):
            h = self.make_hist(seed=seed)
            est = run_ga(h, cfg, rng=seed)
            errs.append(abs(est.tau_hat - 15e-3) / 15e-3)
        assert np.median(errs) <= 0.15

    def test_estimate_within_range(self):
        cfg = GaConfig(tau_range=(20e-3, 30e-3), max_iterations=60)
        for seed in range(4):
            h = self.make_hist(duration=5.0, seed=seed)
            est = run_ga(h, cfg, rng=seed)
            assert 20e-3 <= est.tau_hat <= 30e-3

    def test_small_histogram_rejected(self):
        h = hist({3: 1})
        with pytest.raises(InsufficientDataError):
            run_ga(h, GaConfig(tau_range=(1e-3, 100e-3)), rng=0)

    def test_iterations_count_generations_run(self, monkeypatch):
        # a max_iterations exit after accepting estimates reports the
        # generations that ran, not the last accepting one + 1
        from blinkfit import ga

        calls = []
        original = ga.silhouette

        def counted(clustering):
            calls.append(clustering)
            return original(clustering)

        monkeypatch.setattr(ga, "silhouette", counted)
        cfg = GaConfig(tau_range=(1e-3, 100e-3), max_iterations=200)
        est = run_ga(self.make_hist(duration=20.0, seed=1), cfg, rng=2)
        diag = est.diagnostics
        assert diag["termination"] == "max_iterations"
        assert diag["accepted"] >= 1
        assert diag["estimate_log"][-1][0] + 1 < cfg.max_iterations
        assert len(calls) == 2 * cfg.max_iterations  # two individuals per generation
        assert diag["iterations"] == cfg.max_iterations

    @pytest.mark.parametrize("n_pairs, k_hi", [(2, 2), (4, 3), (20, K_MAX)])
    def test_patience_ends_a_run_that_accepts_nothing(self, n_pairs, k_hi, monkeypatch):
        # equal counts make every cluster's median and longest counts
        # coincide, so no cluster yields a lifetime and nothing is accepted
        h = hist({d: 5 for d in range(1, n_pairs + 1)})
        calls = []
        original = ga.silhouette

        def counted(clustering):
            calls.append(clustering.k)
            return original(clustering)

        monkeypatch.setattr(ga, "silhouette", counted)
        cfg = GaConfig(tau_range=(1e-3, 100e-3))
        est = run_ga(h, cfg, rng=3)
        diag = est.diagnostics
        patience = K_PATIENCE * (k_hi - 1)
        assert diag["termination"] == "patience"
        assert diag["accepted"] == 0
        assert diag["iterations"] == patience
        assert len(calls) == 2 * patience  # two individuals per generation
        # every cluster count in [2, k_hi] had its K_PATIENCE generations
        assert sorted(set(calls)) == list(range(2, k_hi + 1))
        assert all(calls.count(k) == 2 * K_PATIENCE for k in set(calls))
        seed = heuristic_estimate(h, cfg.tau_range)
        assert est.tau_hat == min(max(ga._blend([seed], h.bin_width), 1e-3), 100e-3)
        assert math.isnan(est.std_err)
        assert est.converged

    @pytest.mark.parametrize("duration, state, seed", [(2.0, "off", 0), (200.0, "on", 0)])
    def test_no_accepting_run_outlasts_its_patience(self, duration, state, seed):
        h = self.make_hist(duration=duration, seed=seed, state=state)
        est = run_ga(h, GaConfig(tau_range=(1e-3, 100e-3)), rng=seed)
        diag = est.diagnostics
        k_hi = min(K_MAX, math.ceil(SUBSET_FRACTION * len(h)))
        patience = K_PATIENCE * (k_hi - 1)
        accepted_at = [row[0] for row in diag["estimate_log"]]
        assert diag["accepted"] == len(accepted_at) >= 1
        # generations without an acceptance before each accepted one
        gaps = np.diff([-1, *accepted_at]) - 1
        assert gaps.max() < patience
        if diag["termination"] == "patience":
            assert diag["iterations"] - 1 - accepted_at[-1] == patience
        assert np.isfinite(est.std_err)

    def test_config_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "ga.json"
        # a hyperparameter held as a module constant is not a key
        path.write_text(json.dumps({"tau_range": [1e-3, 0.1], "mutation_rate": 0.1}))
        with pytest.raises(ValueError, match="mutation_rate"):
            load_fields(GaConfig, path)
        path.write_text(json.dumps({"max_iterations": 3}))
        with pytest.raises(ValueError, match="tau_range"):
            load_fields(GaConfig, path)


class TestGaConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GaConfig(tau_range=(2e-3, 1e-3))
        for bad in (0, -5, 2.5):
            with pytest.raises(ValueError, match="max_iterations"):
                GaConfig(tau_range=(1e-3, 0.1), max_iterations=bad)
