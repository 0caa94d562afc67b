"""Unsupervised genetic algorithm over K-means++ clusterings.

Individuals are random subsets of a dwell histogram's (duration,
occurrences) pairs, held as sorted row indices into hist.pairs().  Each
generation the two live individuals are clustered (K-means++ seeding,
Lloyd refinement) and scored by mean silhouette minus an elitism penalty;
the winner either yields a lifetime from its tightest cluster that yields
one or is replaced by two mutated clones.  run_ga documents how a run
ends.  A caller sets only GaConfig's tau_range and max_iterations; every
other hyperparameter is a module constant.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dwell import DwellHistogram, mean_dwell
from .errors import DegenerateClusterError, InsufficientDataError
from .estimate import RateEstimate

_LN2 = math.log(2.0)
K_INIT = 3
K_MAX = 8
K_PATIENCE = 20
SILHOUETTE_THRESHOLD = 0.6
SUBSET_FRACTION = 0.7
MUTATION_RATE = 0.05
ELITISM_PENALTY_WEIGHT = 0.5
ROLLING_WINDOW = 10
STABILITY_REL_TOL = 0.02
# weights of the estimate log's (final, mean, mode, median) in the blend
# returned when a run ends before the estimate stabilizes
BLEND_WEIGHTS = (0.4, 0.2, 0.2, 0.2)
# K-means stops once no point is reassigned and no centroid moves further
MOVEMENT_TOL = 1e-9
KMEANS_MAX_ITER = 50


@dataclass(frozen=True)
class GaConfig:
    """The user-mandated strict lifetime bound (seconds) and the generation cap."""

    tau_range: tuple[float, float]
    max_iterations: int = 500

    def __post_init__(self):
        lo, hi = self.tau_range
        if not 0 < lo < hi:
            raise ValueError("tau_range must satisfy 0 < lo < hi")
        if type(self.max_iterations) is not int or self.max_iterations < 1:
            raise ValueError("max_iterations must be an integer of at least 1")


@dataclass(eq=False)
class Clustering:
    """K-means output: centroids, assignment, the final potential, and the
    clustered points with their squared-distance table for silhouette."""

    k: int
    centroids: np.ndarray
    assignment: np.ndarray
    potential: float
    phi_history: list[float] = field(default_factory=list)
    points: np.ndarray | None = None
    # squared distance between every two points; silhouette computes it when absent
    sq_dists: np.ndarray | None = None


def heuristic_estimate(hist: DwellHistogram, tau_range: tuple[float, float]) -> float:
    """Seed lifetime from cheap histogram summaries.

    Median of three candidates: the mean dwell, the longest observed dwell
    scaled by ln(1 + total occurrences) (extreme-value correction), and the
    duration of the most frequent bin (shortest on ties), clamped to the
    user range.
    """
    if len(hist) == 0 or hist.total <= 0:
        raise ValueError("histogram is empty")
    c1 = mean_dwell(hist)
    longest = float(hist.durations[-1])
    c2 = longest / math.log(1.0 + hist.total)
    best = np.flatnonzero(hist.occurrences == hist.occurrences.max())[0]
    c3 = float(hist.durations[best])
    lo, hi = tau_range
    return float(min(max(np.median([c1, c2, c3]), lo), hi))


def spawn_individual(hist: DwellHistogram, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices of ceil(SUBSET_FRACTION * |pairs|) distinct rows of hist.pairs()."""
    m = len(hist)
    if m == 0:
        raise InsufficientDataError("cannot spawn an individual from an empty histogram")
    size = int(math.ceil(SUBSET_FRACTION * m))
    rows = rng.choice(m, size=size, replace=False)
    rows.sort()
    return rows


def _draw_index(p: np.ndarray, rng: np.random.Generator) -> int:
    """rng.choice(len(p), p=p), with the same single draw, without its checks."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _sq_table(a: np.ndarray, b: np.ndarray, cols: list | None = None) -> np.ndarray:
    """Squared distance from every row of a to every row of b, shape (len(a), len(b)).

    Added one coordinate at a time, in the order ((a - b) ** 2).sum(axis=2)
    adds them for fewer than 8 coordinates, so the bits are the same.
    cols, when given, holds a's (m, 1) coordinate columns.
    """
    if cols is None:
        cols = list(a.T[:, :, None])
    per_coord = b.T
    table = cols[0] - per_coord[0]
    table *= table
    for c in range(1, len(cols)):
        diff = cols[c] - per_coord[c]
        diff *= diff
        table += diff
    return table


def _row_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distance between each row of a and the same row of b, as _sq_table adds it."""
    diff = a - b
    diff *= diff
    sq = diff[:, 0]
    for c in range(1, diff.shape[1]):
        sq = sq + diff[:, c]
    return sq


def _pairwise_sq(pts: np.ndarray) -> np.ndarray:
    """Squared distance between every two rows of pts."""
    return _sq_table(pts, pts)


def _seed_indices(sq_dists: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Row indices of D^2-weighted centroid seeds, from the pairwise table.

    The first seed is uniform; each next one is drawn with probability
    proportional to the squared distance to the nearest chosen seed, or
    uniformly when every such distance is zero (all points identical).
    """
    m = sq_dists.shape[0]
    seeds = [int(rng.integers(m))]
    d2 = sq_dists[seeds[0]]
    for j in range(1, k):
        total = np.add.reduce(d2)
        if total <= 0.0:
            idx = int(rng.integers(m))
        else:
            idx = _draw_index(d2 / total, rng)
        seeds.append(idx)
        if j + 1 < k:
            d2 = np.minimum(d2, sq_dists[idx])
    return np.array(seeds)


def _seize_empty(pts, centroids, labels) -> None:
    """Give each empty cluster a distinct point, the farthest from its own
    centroid, updating centroids and labels in place."""
    dist_own = _row_sq(pts, centroids[labels])
    for j in range(centroids.shape[0]):
        if not (labels == j).any():
            farthest = int(dist_own.argmax())
            centroids[j] = pts[farthest]
            labels[farthest] = j
            dist_own[farthest] = -1.0


def kmeans_cluster(
    points: np.ndarray, k: int, rng: np.random.Generator, sq_dists: np.ndarray | None = None
) -> Clustering:
    """Lloyd iterations from a K-means++ seed, minimizing the potential.

    The pairwise squared-distance table is computed once, or taken from
    sq_dists (run_ga passes a clone's unchanged table): its rows weight the
    K-means++ draws, its seed columns give the first assignment, and the
    Clustering carries it for silhouette.  Each update takes every centroid
    from one np.bincount of sums, which adds members in point order as
    mean(axis=0) does on 2-D points.  Each point's potential term is read
    from the table at its label, the row minimum.  Stops once no point is
    reassigned and no centroid moves further than MOVEMENT_TOL (or after
    KMEANS_MAX_ITER iterations).  An empty cluster keeps its centroid until
    it seizes the point farthest from its own centroid.  Fewer than k
    distinct points raise ValueError.

    An update that reassigns no point, with no cluster empty and a finite
    potential, also ends the run when an iteration is left: that iteration
    would settle on the same centroids.  Its potential is still appended,
    so len(phi_history) - 1 is the iteration count of the run without this
    stop.  A finite potential sums a finite distance to each centroid, so
    every centroid is finite; a NaN centroid runs on to KMEANS_MAX_ITER.
    """
    pts = np.asarray(points, dtype=float)
    m, d = pts.shape
    if m < k or k < 1:
        raise ValueError(f"need at least {k} points for {k} clusters, got {m}")

    if sq_dists is None:
        sq_dists = _pairwise_sq(pts)
    seeds = _seed_indices(sq_dists, k, rng)
    centroids = pts.take(seeds, axis=0)
    # squared distances from every point to each seed
    seed_d2 = sq_dists.take(seeds, axis=1)
    labels = seed_d2.argmin(axis=1)
    # flat index of row i's entry at column j of an (m, k) table: at[i] + j
    at = np.arange(0, m * k, k)
    history = [np.add.reduce(seed_d2.take(at + labels))]
    coords = pts.ravel()
    cols = list(pts.T[:, :, None])
    # bins[j, c] sums coordinate c over the members of cluster j
    bins = np.arange(k * d).reshape(k, d)
    for it in range(KMEANS_MAX_ITER):
        counts = np.bincount(labels, minlength=k)
        flat = bins.take(labels, axis=0).ravel()
        sums = np.bincount(flat, weights=coords, minlength=k * d).reshape(k, d)
        full = 0 not in counts.tolist()
        if full:
            new_centroids = sums / counts[:, None]
        else:
            filled = counts > 0
            new_centroids = centroids.copy()
            new_centroids[filled] = sums[filled] / counts[filled, None]
            # repair empty clusters before the next assignment
            _seize_empty(pts, new_centroids, labels)
        table = _sq_table(pts, new_centroids, cols)
        new_labels = table.argmin(axis=1)
        phi_new = np.add.reduce(table.take(at + new_labels))
        unchanged = new_labels.tobytes() == labels.tobytes()
        old_centroids = centroids
        centroids, labels = new_centroids, new_labels
        history.append(phi_new)
        if unchanged:
            moved = math.sqrt(np.maximum.reduce(_row_sq(new_centroids, old_centroids)))
            if moved <= MOVEMENT_TOL:
                break
            if full and it + 1 < KMEANS_MAX_ITER and math.isfinite(phi_new):
                history.append(phi_new)  # the settling iteration's potential
                break
    else:
        full = False  # the cap ended the run: the last labels were not counted
    # fewer than k distinct points always leave a cluster empty here; with
    # at least k, centroid ties can starve one, and a final seize fills it
    if not full and 0 in np.bincount(labels, minlength=k).tolist():
        distinct = len(np.unique(pts, axis=0))
        if distinct < k:
            raise ValueError(
                f"need at least {k} distinct points for {k} clusters, got {distinct}"
            )
        _seize_empty(pts, centroids, labels)
        history.append(float(((pts - centroids[labels]) ** 2).sum()))
    return Clustering(
        k=k,
        centroids=centroids,
        assignment=labels,
        potential=float(history[-1]),
        phi_history=[float(p) for p in history],
        points=pts,
        sq_dists=sq_dists,
    )


def silhouette(clustering: Clustering) -> np.ndarray:
    """Per-point silhouette values for a clustering with k >= 2.

    s(i) compares the mean distance to the point's own cluster a(i) with
    the smallest mean distance to another cluster b(i); points in singleton
    clusters score 0.  A clustering it cannot score raises ValueError.
    """
    if clustering.k < 2:
        raise ValueError("silhouette needs at least two clusters")
    pts = clustering.points
    labels = clustering.assignment
    k = clustering.k
    if pts is None:
        raise ValueError("silhouette needs the clustering's points")
    m = pts.shape[0]
    if len(labels) != m:
        raise ValueError(f"assignment has {len(labels)} labels for {m} points")
    sq_dists = clustering.sq_dists
    dist = np.sqrt(_pairwise_sq(pts) if sq_dists is None else sq_dists)
    sizes = np.bincount(labels, minlength=k)
    if len(sizes) > k or 0 in sizes.tolist():
        raise ValueError(f"every cluster must be non-empty, and every label in [0, {k})")
    own = np.arange(0, m * k, k) + labels
    onehot = np.zeros((m, k))
    onehot.put(own, 1.0)  # own: each point's flat index at its own cluster
    # mean distance from every point to every cluster (self included)
    mean_to = dist @ onehot / sizes
    own_size = sizes.take(labels)
    # a(i): own-cluster mean excluding the zero self-distance
    a = mean_to.take(own) * own_size / np.maximum(own_size - 1, 1)
    mean_to.put(own, np.inf)
    b = np.minimum.reduce(mean_to, axis=1)
    # singletons score 0, and so does a = b; elsewhere 1 - a / b where a < b
    # and b / a - 1 = -(1 - b / a) where a > b.  A zeroed score divides by 1,
    # so a = b = 0 raises no floating-point warning.
    zero = (own_size == 1) | (a == b)
    big = np.maximum(a, b)
    big[zero] = 1.0
    scores = np.minimum(a, b)
    scores /= big
    np.subtract(1.0, scores, out=scores)
    np.negative(scores, out=scores, where=a > b)
    scores[zero] = 0.0
    return scores


def crossover_clone_exchange(
    individual: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Clone the individual twice: swapping slots between two identical
    clones leaves both equal to the parent, so only mutation makes them differ."""
    m = len(individual)
    if m >= 2:
        # the exchange's slot draw is kept although it changes nothing:
        # dropping it would shift every later draw, and so every seeded result
        rng.choice(m, size=m // 2, replace=False)
    return individual.copy(), individual.copy()


def mutate(
    individual: np.ndarray, hist: DwellHistogram, rng: np.random.Generator
) -> np.ndarray:
    """Replace each index, with probability MUTATION_RATE, by an unused one.

    Replacements are drawn uniformly from the rows of hist.pairs() not
    already in the individual; when none remain the index is kept.  The
    flags are drawn first, so an individual with none set is returned
    sorted without building the pool.
    """
    flags = rng.random(len(individual)) < MUTATION_RATE
    out = individual.copy()
    if True not in flags.tolist():
        out.sort()
        return out
    used = np.zeros(len(hist), dtype=bool)
    used[individual] = True
    pool = (~used).nonzero()[0].tolist()
    for slot in flags.nonzero()[0]:
        if not pool:
            break
        out[slot] = pool.pop(int(rng.integers(len(pool))))
    out.sort()
    return out


def extract_tau(rows, bin_width: float) -> float:
    """Convert a cluster's (duration, count) rows to a lifetime, or refuse it.

    The rows (Python lists or an (n, 2) array) are sorted as tuples by
    duration, then count.  With M the lower occurrence-weighted median row,
    D_M its duration, C_M its count and C_max the count of the last row:

        tau = D_M / (ln 2 * |ln C_max - ln C_M|)

    The ln 2 converts the median of an exponential decay to its mean; the
    absolute value keeps tau positive on decaying histograms where the
    longest point carries the lowest count.  Plain Python arithmetic; the
    running totals add in row order, as a cumsum does.  Raises ValueError,
    DegenerateClusterError among them, when the rows cannot give a lifetime
    or hold a non-finite value (durations are checked last, so a rejected
    degenerate cluster pays no pass for them).
    """
    try:
        rows = [(d, c) for d, c in rows]
    except (TypeError, ValueError):  # rows that are not (duration, count) pairs
        rows = []
    if len(rows) < 2:
        raise ValueError("cluster must contain at least two (duration, count) points")
    rows.sort()
    durations, counts = zip(*rows)
    if min(counts) <= 0:
        raise ValueError("occurrence counts must be positive")
    if durations[0] == durations[-1]:
        raise ValueError("cluster must span at least two distinct durations")
    cum = list(itertools.accumulate(counts))
    if not math.isfinite(cum[-1]):
        raise ValueError("occurrence counts must be finite")
    median = bisect.bisect_left(cum, cum[-1] / 2.0)
    c_m = counts[median]
    # max-duration point; ties broken towards the higher count (sort order)
    c_max = counts[-1]
    if c_max == c_m:
        raise DegenerateClusterError(
            "median and maximum-duration counts coincide; decay rate undefined"
        )
    if not all(map(math.isfinite, durations)):
        raise ValueError("durations must be finite")
    return float(durations[median] * bin_width / (_LN2 * abs(math.log(c_max) - math.log(c_m))))


def _normalize(points: np.ndarray) -> np.ndarray:
    """Min-max scale both axes to [0, 1] over the individual."""
    pts = np.asarray(points, dtype=float)
    lo = np.minimum.reduce(pts)
    span = np.maximum.reduce(pts) - lo
    span[span == 0.0] = 1.0
    return (pts - lo) / span


def _candidate_tau(points: np.ndarray, clustering: Clustering, bin_width: float):
    """The lifetime of the tightest cluster that yields one, or None.

    extract_tau is called once on every cluster's rows, and the clusters
    it refuses are dropped.  Tightness, the mean member distance to the
    centroid, is computed only when at least two clusters yield a
    lifetime; a tie goes to the lowest index.
    """
    labels = clustering.assignment
    members: list[list] = [[] for _ in range(clustering.k)]
    for label, row in zip(labels.tolist(), points.tolist()):
        members[label].append(row)
    taus = {}
    for j, rows in enumerate(members):
        try:
            taus[j] = extract_tau(rows, bin_width)
        except ValueError:
            continue
    if len(taus) < 2:
        return next(iter(taus.values()), None)
    own = np.sqrt(_row_sq(clustering.points, clustering.centroids.take(labels, axis=0)))
    # per-cluster means summed pairwise, as .mean() sums 8 or more members
    # (a bincount's order could reorder near-ties)
    means = {j: np.add.reduce(own[labels == j]) / len(members[j]) for j in taus}
    return taus[min(taus, key=means.__getitem__)]


def _blend(estimates: list[float], bin_width: float) -> float:
    last = estimates[-1]
    mean = float(np.mean(estimates))
    median = float(np.median(estimates))
    rounded = np.rint(np.asarray(estimates) / bin_width).astype(int)
    values, counts = np.unique(rounded, return_counts=True)
    mode = float(values[counts.argmax()] * bin_width)
    w_final, w_mean, w_mode, w_median = BLEND_WEIGHTS
    return w_final * last + w_mean * mean + w_mode * mode + w_median * median


def run_ga(hist: DwellHistogram, config: GaConfig, rng=None) -> RateEstimate:
    """Evolve histogram subsets until the lifetime estimate stabilizes.

    Exactly two individuals are alive at any time.  Each generation both
    are clustered and scored by mean silhouette minus an elitism penalty
    proportional to the relative distance between the individual's
    candidate lifetime and the rolling mean of previous estimates (the
    heuristic seed anchors the penalty before the first acceptance).  A
    winner above the silhouette threshold adds the lifetime of its tightest
    cluster that yields one to the estimate log and the population is
    respawned; otherwise two mutated clones of the winner form the next
    generation, and one that mutation left unchanged reuses the winner's
    rows and distance table.  After every K_PATIENCE sub-threshold
    generations the cluster count steps through [2, k_hi], k_hi =
    min(K_MAX, subset size).

    diagnostics["termination"] names how the run ended:

    - "stability": the last ROLLING_WINDOW accepted estimates agree to
      STABILITY_REL_TOL; the result is their median.
    - "patience": K_PATIENCE * (k_hi - 1) generations in a row accepted
      nothing, K_PATIENCE at every cluster count; the result is the
      blended estimate log.
    - "max_iterations": config.max_iterations generations ran; the result
      is the blended estimate log.

    The result is always clamped to config.tau_range.  std_err is the
    standard error of the stable window, or of the estimate log on a
    blend; it is NaN when nothing was accepted.  converged stays True on
    such a fallback, which diagnostics["accepted"] == 0 marks: False would
    blank most GA cells on 2 s traces, where most runs accept nothing.
    """
    generator = np.random.default_rng(rng)
    m = len(hist)
    subset_size = int(math.ceil(SUBSET_FRACTION * m))
    if m < 2 or subset_size < 2:
        raise InsufficientDataError(
            f"histogram with {m} pairs is too small to spawn individuals"
        )
    lo, hi = config.tau_range
    # The heuristic seeds the estimate log: it anchors the elitism penalty
    # and keeps the blend defined when no cluster yields a lifetime.
    tau0 = heuristic_estimate(hist, config.tau_range)
    estimates: list[float] = [tau0]
    log_rows: list[tuple[int, float, float, int]] = []
    pairs = hist.pairs()

    k = max(2, min(K_INIT, subset_size))
    k_hi = max(2, min(K_MAX, subset_size))
    patience = K_PATIENCE * (k_hi - 1)
    drought = 0  # generations since the last accepted estimate
    individuals = [spawn_individual(hist, generator) for _ in range(2)]
    termination = "max_iterations"
    tau_final = None
    std_err = float("nan")

    # the last winner's index bytes, rows, normalised rows and table
    last_winner = None
    ref = tau0  # the elitism reference: the mean of the last estimates

    for iteration in range(config.max_iterations):
        scored = []
        for ind in individuals:
            if last_winner is not None and ind.tobytes() == last_winner[0]:
                _, points, normed, table = last_winner
            else:
                points = pairs.take(ind, axis=0)
                normed, table = _normalize(points), None
            clustering = kmeans_cluster(normed, k, generator, sq_dists=table)
            values = silhouette(clustering)
            sil = float(np.add.reduce(values) / values.size)  # .mean()
            tau_c = _candidate_tau(points, clustering, hist.bin_width)
            if tau_c is None:
                # worst-case penalty: no usable cluster never beats one
                score = sil - ELITISM_PENALTY_WEIGHT
            else:
                score = sil - ELITISM_PENALTY_WEIGHT * abs(tau_c - ref) / ref
            scored.append((score, sil, tau_c, ind, points, clustering))
        first, second = scored  # the first of equal scores wins, as in max()
        best = second if second[0] > first[0] else first
        score, sil, tau_c, winner, points, clustering = best

        if score > SILHOUETTE_THRESHOLD and tau_c is not None:
            estimates.append(tau_c)
            ref = float(np.mean(estimates[-ROLLING_WINDOW:]))
            log_rows.append((iteration, tau_c, sil, k))
            drought = 0
            if len(estimates) >= ROLLING_WINDOW:
                window = np.asarray(estimates[-ROLLING_WINDOW :])
                med = float(np.median(window))
                if med > 0 and (window.max() - window.min()) / med <= STABILITY_REL_TOL:
                    tau_final = med
                    std_err = float(window.std(ddof=1) / math.sqrt(window.size))
                    termination = "stability"
                    break
            individuals = [spawn_individual(hist, generator) for _ in range(2)]
            last_winner = None
        else:
            drought += 1
            if drought == patience:
                termination = "patience"
                break
            last_winner = (winner.tobytes(), points, clustering.points, clustering.sq_dists)
            child_a, child_b = crossover_clone_exchange(winner, generator)
            individuals = [
                mutate(child_a, hist, generator),
                mutate(child_b, hist, generator),
            ]
            if drought % K_PATIENCE == 0:
                # cycle the cluster count through [2, k_hi]
                k = k + 1 if k < k_hi else 2

    if tau_final is None:
        tau_final = _blend(estimates, hist.bin_width)
        if len(estimates) >= 2:
            std_err = float(np.std(estimates, ddof=1) / math.sqrt(len(estimates)))

    clamped = float(min(max(tau_final, lo), hi))
    return RateEstimate(
        tau_hat=clamped,
        std_err=std_err,
        method="ga",
        converged=True,
        diagnostics={
            "termination": termination,
            "iterations": iteration + 1,
            "accepted": len(estimates) - 1,  # excludes the heuristic seed
            "k_final": k,
            "heuristic": tau0,
            "estimate_log": log_rows,
        },
    )
