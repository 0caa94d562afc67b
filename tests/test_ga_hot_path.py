"""The GA hot path gives the same bits as its earlier, per-cluster form.

kmeans_cluster takes every centroid from one np.bincount, skips the
empty-cluster repair when no cluster is empty, and draws K-means++ seeds
without rng.choice; _candidate_tau calls extract_tau once on every
cluster's Python rows, so extract_tau itself is the screen, and computes
tightness only when two or more clusters yield a lifetime.  The reference
functions below are the earlier per-cluster loops, kept verbatim, and the
tests require equal bits, not closeness: the rewrite changes no
arithmetic order.

kmeans_cluster also reads its K-means++ weights and first assignment from
one pairwise distance table and stops one Lloyd iteration early when that
iteration could only settle, and mutate draws its flags before building
its pool; the reference loops, and ref_mutate below, do neither.

Every squared distance is built one coordinate at a time (_sq_table,
_row_sq) rather than reduced with .sum over an (m, n, d) temporary, and
run_ga hands the winner's table to a clone that mutation left unchanged;
ref_table and the reference loops below keep the reduce and recompute
every table.
"""

import math
import re

import numpy as np
import pytest

from blinkfit import ga
from blinkfit.dwell import DwellHistogram, auto_threshold, binarize, dwell_histogram
from blinkfit.emitter import EmitterModel, generate_trace
from blinkfit.errors import DegenerateClusterError
from blinkfit.ga import (
    GaConfig,
    _candidate_tau,
    _draw_index,
    _normalize,
    extract_tau,
    kmeans_cluster,
    mutate,
    run_ga,
    silhouette,
)


# --- reference: the per-cluster loops the hot path replaced -----------------


def ref_kmeanspp_init(points, k, rng):
    pts = np.asarray(points, dtype=float)
    m = pts.shape[0]
    centroids = np.empty((k, pts.shape[1]))
    centroids[0] = pts[rng.integers(m)]
    d2 = ((pts - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = rng.integers(m)
        else:
            idx = rng.choice(m, p=d2 / total)
        centroids[j] = pts[idx]
        d2 = np.minimum(d2, ((pts - centroids[j]) ** 2).sum(axis=1))
    return centroids


def ref_assign(pts, centroids):
    d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    return labels, d2[np.arange(pts.shape[0]), labels].sum()


def ref_seize_empty(pts, centroids, labels):
    dist_own = ((pts - centroids[labels]) ** 2).sum(axis=1)
    for j in range(centroids.shape[0]):
        if not (labels == j).any():
            farthest = int(dist_own.argmax())
            centroids[j] = pts[farthest]
            labels[farthest] = j
            dist_own[farthest] = -1.0


def ref_kmeans_cluster(points, k, rng, sq_dists=None):
    # sq_dists is ignored: the reference computes every distance afresh
    pts = np.asarray(points, dtype=float)
    centroids = ref_kmeanspp_init(pts, k, rng)
    labels, phi = ref_assign(pts, centroids)
    history = [phi]
    for _ in range(ga.KMEANS_MAX_ITER):
        new_centroids = centroids.copy()
        for j in range(k):
            mask = labels == j
            if mask.any():
                new_centroids[j] = pts[mask].mean(axis=0)
        ref_seize_empty(pts, new_centroids, labels)
        new_labels, phi_new = ref_assign(pts, new_centroids)
        moved = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        unchanged = np.array_equal(new_labels, labels)
        centroids, labels = new_centroids, new_labels
        history.append(phi_new)
        if unchanged and moved <= ga.MOVEMENT_TOL:
            break
    if len(np.unique(labels)) < k:
        ref_seize_empty(pts, centroids, labels)
        history.append(float(((pts - centroids[labels]) ** 2).sum()))
    return ga.Clustering(
        k=k,
        centroids=centroids,
        assignment=labels.copy(),
        potential=float(history[-1]),
        phi_history=[float(p) for p in history],
        points=pts,
    )


def ref_extract_tau(points, bin_width):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("cluster must contain at least two (duration, count) points")
    if np.any(pts[:, 1] <= 0):
        raise ValueError("occurrence counts must be positive")
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    if np.unique(pts[:, 0]).size < 2:
        raise ValueError("cluster must span at least two distinct durations")
    cum = np.cumsum(pts[:, 1])
    median_idx = int(np.searchsorted(cum, cum[-1] / 2.0))
    d_m = pts[median_idx, 0] * bin_width
    c_m = pts[median_idx, 1]
    c_max = pts[-1, 1]
    if c_max == c_m:
        raise DegenerateClusterError(
            "median and maximum-duration counts coincide; decay rate undefined"
        )
    return float(d_m / (ga._LN2 * abs(math.log(c_max) - math.log(c_m))))


def ref_candidate_tau(points, clustering, bin_width):
    labels = clustering.assignment
    own = np.sqrt(((clustering.points - clustering.centroids[labels]) ** 2).sum(axis=1))
    tightness = [own[labels == j].mean() for j in range(clustering.k)]
    for j in np.argsort(tightness, kind="stable"):
        members = labels == j
        if members.sum() < 2:
            continue
        try:
            return ref_extract_tau(points[members], bin_width)
        except (DegenerateClusterError, ValueError):
            continue
    return None


def ref_mutate(individual, hist, rng):
    used = np.zeros(len(hist), dtype=bool)
    used[individual] = True
    pool = np.flatnonzero(~used).tolist()
    out = individual.copy()
    flags = rng.random(len(out)) < ga.MUTATION_RATE
    for slot in np.flatnonzero(flags):
        if not pool:
            break
        out[slot] = pool.pop(int(rng.integers(len(pool))))
    return np.sort(out)


def ref_table(a, b):
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


def ref_rows(a, b):
    return ((a - b) ** 2).sum(axis=1)


# --- inputs ------------------------------------------------------------------


def ga_like_points(rng):
    """An individual's (duration index, count) rows: distinct durations in
    increasing order, decaying counts of at least 1 with frequent ties."""
    m = int(rng.integers(4, 90))
    durations = np.sort(rng.choice(np.arange(1, 4 * m + 20), size=m, replace=False))
    scale = rng.uniform(2.0, 80.0)
    counts = np.maximum(1, rng.poisson(rng.uniform(1.0, 60.0) * np.exp(-durations / scale)))
    return np.column_stack([durations, counts])


def duplicate_points(rng):
    """Rows drawn with repeats from a few distinct (duration, count) pairs."""
    distinct = int(rng.integers(2, 9))
    base = np.column_stack(
        [rng.choice(np.arange(1, 40), size=distinct, replace=False), rng.integers(1, 6, distinct)]
    )
    rows = base[rng.integers(distinct, size=int(rng.integers(distinct, 30)))]
    rows[:distinct] = base  # every distinct pair appears at least once
    return rows[np.lexsort((rows[:, 1], rows[:, 0]))], distinct


def assert_same_clustering(new, ref):
    np.testing.assert_array_equal(new.assignment, ref.assignment)
    np.testing.assert_array_equal(new.centroids, ref.centroids)
    assert new.phi_history == ref.phi_history
    assert new.potential == ref.potential


def same_outcome(points, k, seed):
    new = kmeans_cluster(_normalize(points), k, np.random.default_rng(seed))
    ref = ref_kmeans_cluster(_normalize(points), k, np.random.default_rng(seed))
    assert_same_clustering(new, ref)
    tau = _candidate_tau(points, new, 1e-3)
    assert tau == ref_candidate_tau(points, ref, 1e-3)
    return tau


def same_clustering_nan_aware(points, k, seed):
    new = kmeans_cluster(points, k, np.random.default_rng(seed))
    ref = ref_kmeans_cluster(points, k, np.random.default_rng(seed))
    np.testing.assert_array_equal(new.assignment, ref.assignment)
    np.testing.assert_array_equal(new.centroids, ref.centroids)
    # assert_array_equal counts NaN as equal to NaN; the lengths must match too
    np.testing.assert_array_equal(new.phi_history, ref.phi_history)
    return new


class TestBitIdentity:
    def test_ga_like_point_sets(self):
        rng = np.random.default_rng(20231)
        accepted = 0
        for seed in range(3000):
            points = ga_like_points(rng)
            k = int(rng.integers(2, min(ga.K_MAX, len(points)) + 1))
            accepted += same_outcome(points, k, seed) is not None
        # both branches of the candidate search were exercised
        assert 0 < accepted < 3000

    def test_point_sets_with_duplicates(self):
        rng = np.random.default_rng(7)
        for seed in range(1000):
            points, distinct = duplicate_points(rng)
            k = int(rng.integers(2, min(distinct, ga.K_MAX) + 1))
            same_outcome(points, k, seed)

    @pytest.mark.parametrize("duration", [2.0, 20.0])
    def test_run_ga_output(self, duration, monkeypatch):
        model = EmitterModel(tau_on=15e-3, tau_off=45e-3)
        # 120 generations stay below every patience (20 to 140); 500 reach it
        configs = [GaConfig(tau_range=(1e-3, 100e-3), max_iterations=n) for n in (120, 500)]
        cases = []
        for seed in range(10):
            trace = generate_trace(model, duration, 1e-3, "poisson", rng=1000 + seed)
            cases.extend(dwell_histogram(binarize(trace, auto_threshold(trace))))
        new = [[run_ga(h, cfg, rng=seed) for seed, h in enumerate(cases)] for cfg in configs]
        monkeypatch.setattr(ga, "kmeans_cluster", ref_kmeans_cluster)
        monkeypatch.setattr(ga, "_candidate_tau", ref_candidate_tau)
        ref = [[run_ga(h, cfg, rng=seed) for seed, h in enumerate(cases)] for cfg in configs]
        assert len(cases) == 20
        for cfg, runs, refs in zip(configs, new, ref):
            for a, b in zip(runs, refs):
                assert (a.tau_hat, a.diagnostics) == (b.tau_hat, b.diagnostics)
                # a run that accepts nothing reports NaN, which equals nothing
                assert a.std_err == b.std_err or math.isnan(a.std_err) and math.isnan(b.std_err)
            endings = {est.diagnostics["termination"] for est in runs}
            assert ("patience" in endings) == (cfg.max_iterations == 500)


def mixed_points(rng, m, d):
    """Rows whose coordinates span 1e-12 to 1e6, with repeated rows and
    all-zero columns mixed in."""
    pts = rng.uniform(-1.0, 1.0, (m, d)) * 10.0 ** rng.uniform(-12.0, 6.0, (m, d))
    if rng.random() < 0.3:
        pts = pts[rng.integers(m, size=m)]  # duplicates
    if rng.random() < 0.3:
        pts[:, rng.integers(d)] = 0.0
    return pts


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestDistanceTables:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_match_the_reduce(self, d):
        rng = np.random.default_rng(40 + d)
        reordered = 0
        for _ in range(2000):
            m, k = int(rng.integers(1, 30)), int(rng.integers(1, 9))
            pts = mixed_points(rng, m, d)
            others = mixed_points(rng, k, d)
            if rng.random() < 0.5:
                others[: min(k, m)] = pts[: min(k, m)]  # zero distances
            assert same_bits(ga._pairwise_sq(pts), ref_table(pts, pts))
            assert same_bits(ga._sq_table(pts, others), ref_table(pts, others))
            rows = others[rng.integers(k, size=m)]
            assert same_bits(ga._row_sq(pts, rows), ref_rows(pts, rows))
            if d == 3:
                # enough inputs give other bits under another addition order
                # for the test to tell the orders apart
                sq = (pts[:, None, :] - others[None, :, :]) ** 2
                reordered += not same_bits(sq[..., 0] + (sq[..., 1] + sq[..., 2]),
                                           ref_table(pts, others))
        assert d != 3 or reordered > 100


class TestTableReuse:
    def test_unchanged_clones_reuse_the_winners_table(self, monkeypatch):
        model = EmitterModel(tau_on=15e-3, tau_off=45e-3)
        trace = generate_trace(model, 2.0, 1e-3, "poisson", rng=1000)
        hists = dwell_histogram(binarize(trace, auto_threshold(trace)))
        config = GaConfig(tau_range=(1e-3, 100e-3))
        counts = {"tables": 0, "clusterings": 0, "handed": 0}
        pairwise_sq, kmeans = ga._pairwise_sq, ga.kmeans_cluster

        def counting_table(pts):
            counts["tables"] += 1
            return pairwise_sq(pts)

        def counting_kmeans(points, k, rng, sq_dists=None):
            counts["clusterings"] += 1
            counts["handed"] += sq_dists is not None
            return kmeans(points, k, rng, sq_dists=sq_dists)

        monkeypatch.setattr(ga, "_pairwise_sq", counting_table)
        monkeypatch.setattr(ga, "kmeans_cluster", counting_kmeans)
        new = [run_ga(h, config, rng=seed) for seed, h in enumerate(hists)]
        # silhouette reads the carried table, so every table is a clustering's
        assert 0 < counts["tables"] < counts["clusterings"]
        assert counts["tables"] + counts["handed"] == counts["clusterings"]
        monkeypatch.setattr(ga, "kmeans_cluster", ref_kmeans_cluster)
        monkeypatch.setattr(ga, "_candidate_tau", ref_candidate_tau)
        ref = [run_ga(h, config, rng=seed) for seed, h in enumerate(hists)]
        for a, b in zip(new, ref):
            assert (a.tau_hat, a.diagnostics) == (b.tau_hat, b.diagnostics)
            assert a.std_err == b.std_err or math.isnan(a.std_err) and math.isnan(b.std_err)


class TestExtractTau:
    def test_matches_reference(self):
        # few distinct values make zero counts, single members, repeated
        # durations and equal counts common; the value or the error must match
        rng = np.random.default_rng(3)
        raised = 0
        for _ in range(20000):
            n = int(rng.integers(1, 8))
            durations = rng.integers(1, 5, n)
            counts = rng.integers(0, 4, n) * rng.choice([1.0, 1.5])
            rows = np.column_stack([durations, counts])
            try:
                expected = ref_extract_tau(rows, 1e-3)
            except (DegenerateClusterError, ValueError) as err:
                for given in (rows, rows.tolist()):
                    with pytest.raises(type(err), match=re.escape(str(err))):
                        extract_tau(given, 1e-3)
                raised += 1
                continue
            assert extract_tau(rows, 1e-3) == expected, rows.tolist()
            assert extract_tau(rows.tolist(), 1e-3) == expected, rows.tolist()
        assert 1000 < raised < 19000


class TestCandidateTau:
    def test_one_extract_tau_call_per_cluster(self, monkeypatch):
        # extract_tau is the screen: every cluster goes through it once, so
        # a wrapper on the module global sees each refusal
        outcomes = []

        def counting(rows, bin_width):
            try:
                tau = extract_tau(rows, bin_width)
            except (DegenerateClusterError, ValueError):
                outcomes.append("refused")
                raise
            outcomes.append("lifetime")
            return tau

        monkeypatch.setattr(ga, "extract_tau", counting)
        rng = np.random.default_rng(12)
        refused = accepted = 0
        for seed in range(1000):
            points = ga_like_points(rng)
            k = int(rng.integers(2, min(ga.K_MAX, len(points)) + 1))
            clustering = kmeans_cluster(_normalize(points), k, np.random.default_rng(seed))
            outcomes.clear()
            tau = _candidate_tau(points, clustering, 1e-3)
            assert len(outcomes) == k
            assert tau == ref_candidate_tau(points, clustering, 1e-3)
            refused += outcomes.count("refused")
            accepted += tau is not None
        assert refused > 0 and 0 < accepted < 1000


class TestDrawIndex:
    def test_matches_rng_choice(self):
        # pins numpy's Generator.choice(m, p=p): a numpy whose choice draws
        # differently fails here rather than moving every seeded GA result
        weights_rng = np.random.default_rng(11)
        for seed in range(10000):
            m = int(weights_rng.integers(1, 40))
            weights = weights_rng.uniform(size=m) * (weights_rng.uniform(size=m) < 0.7)
            if weights.sum() == 0.0:
                weights[weights_rng.integers(m)] = 1.0
            p = weights / weights.sum()
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert _draw_index(p, a) == b.choice(m, p=p)
            assert a.bit_generator.state == b.bit_generator.state


class TestLloydShortcut:
    """kmeans_cluster ends one iteration early when labels stop changing; the
    reference runs that iteration, so phi_history must still match."""

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_capped_runs(self, max_iter, monkeypatch):
        monkeypatch.setattr(ga, "KMEANS_MAX_ITER", max_iter)
        rng = np.random.default_rng(100 + max_iter)
        iterations = set()
        for seed in range(400):
            points = ga_like_points(rng)
            k = int(rng.integers(2, min(ga.K_MAX, len(points)) + 1))
            clustering = same_clustering_nan_aware(_normalize(points), k, seed)
            iterations.add(len(clustering.phi_history) - 1)
        for seed in range(200):
            points, distinct = duplicate_points(rng)
            k = int(rng.integers(2, min(distinct, ga.K_MAX) + 1))
            same_clustering_nan_aware(_normalize(points), k, seed)
        # runs that settled before the cap and runs stopped by it
        assert max_iter in iterations
        assert max_iter == 1 or min(iterations) < max_iter

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 50])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_points(self, max_iter, bad, monkeypatch):
        # One cluster: with k >= 2 the reference's rng.choice refuses the
        # non-finite K-means++ weights, so Lloyd would never be reached.
        # A non-finite centroid never passes the movement test, so both
        # run to the cap.
        monkeypatch.setattr(ga, "KMEANS_MAX_ITER", max_iter)
        rng = np.random.default_rng(4)
        for seed in range(20):
            points = _normalize(ga_like_points(rng))
            points[rng.integers(len(points)), rng.integers(2)] = bad
            new = same_clustering_nan_aware(points, 1, seed)
            assert len(new.phi_history) == max_iter + 1

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 50])
    def test_one_cluster(self, max_iter, monkeypatch):
        monkeypatch.setattr(ga, "KMEANS_MAX_ITER", max_iter)
        rng = np.random.default_rng(5)
        for seed in range(20):
            points = _normalize(ga_like_points(rng))
            same_clustering_nan_aware(points, 1, seed)

    def test_update_that_repairs_an_empty_cluster(self):
        # Found by search: an update here empties a cluster, the repair
        # hands it a point, and the next assignment keeps every label.
        # The iteration after it moves the donor cluster's centroid, so it
        # must run; skipping it would append this potential twice.
        points = np.array([
            [0.09862752009259845, 0.9609468630008677],
            [0.6920685117790875, 0.3646677644946237],
            [0.09208609922682998, 0.3802389384057696],
            [0.7615267647118292, 0.05171365646544146],
            [0.778146644962467, 0.2078050222179536],
            [0.1437500234615151, 0.40941752966175693],
            [0.10869277829170132, 0.5703266729313428],
        ])
        same_clustering_nan_aware(points, 3, 95825)

    def test_silhouette_from_carried_table(self):
        rng = np.random.default_rng(6)
        for seed in range(300):
            points = _normalize(ga_like_points(rng))
            k = int(rng.integers(2, min(ga.K_MAX, len(points)) + 1))
            clustering = kmeans_cluster(points, k, np.random.default_rng(seed))
            bare = ga.Clustering(
                k, clustering.centroids, clustering.assignment, clustering.potential,
                points=clustering.points,
            )
            np.testing.assert_array_equal(silhouette(clustering), silhouette(bare))


class TestMutateShortcut:
    def test_matches_reference(self):
        rng = np.random.default_rng(8)
        unflagged = flagged = 0
        for seed in range(3000):
            m = int(rng.integers(2, 60))
            hist = DwellHistogram(
                "on", 1e-3, np.arange(1, m + 1), rng.integers(1, 30, m)
            )
            # from one row to every row (an empty pool), sorted or not
            individual = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
            if seed % 2:
                individual = np.sort(individual)
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            out = mutate(individual, hist, a)
            ref = ref_mutate(individual, hist, b)
            np.testing.assert_array_equal(out, ref)
            assert out.dtype == ref.dtype
            assert a.bit_generator.state == b.bit_generator.state
            flags = np.random.default_rng(seed).random(len(individual)) < ga.MUTATION_RATE
            unflagged += not flags.any()
            flagged += flags.any()
        assert unflagged > 500 and flagged > 500
