"""Unsupervised genetic algorithm over K-means++ clusterings.

Individuals are random subsets of a dwell histogram's (duration,
occurrences) pairs, held as sorted row indices into hist.pairs().  Each
generation the two live individuals are clustered (K-means++ seeding,
Lloyd refinement), scored by mean silhouette minus an elitism penalty, and
either yield a lifetime estimate from the tightest cluster of the winner
or are replaced by two independently mutated clones of the winner.
Accepted estimates accumulate until their rolling window stabilizes; an
exhausted iteration budget instead returns a weighted blend of the
estimate log.  A caller sets only GaConfig's tau_range and max_iterations;
every other hyperparameter is a module constant.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .dwell import DwellHistogram, mean_dwell
from .errors import DegenerateClusterError, InsufficientDataError, NoEstimateError
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
# returned when max_iterations runs out before the estimate stabilizes
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

    def to_json(self, path) -> None:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")

    @classmethod
    def from_json(cls, path) -> "GaConfig":
        """Load a file written by to_json; keys are the field names.

        A missing tau_range or an unknown key raises ValueError naming it.
        """
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: GaConfig must be a JSON object")
        # JSON has no tuples; every list-valued field is a tuple field
        values = {k: tuple(v) if isinstance(v, list) else v for k, v in payload.items()}
        try:
            return cls(**values)
        except TypeError as exc:  # unknown or missing key
            raise ValueError(f"{path}: {exc}") from exc


@dataclass(eq=False)
class Clustering:
    """K-means output: centroids, assignment and the final potential."""

    k: int
    centroids: np.ndarray
    assignment: np.ndarray
    potential: float
    phi_history: list[float] = field(default_factory=list)
    points: np.ndarray | None = None
    # squared distance between every two points; silhouette computes it
    # when absent
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
    return np.sort(rng.choice(m, size=size, replace=False))


def _draw_index(p: np.ndarray, rng: np.random.Generator) -> int:
    """rng.choice(len(p), p=p) without choice's argument checks.

    The same single uniform draw, mapped through the same normalised cdf,
    so the index and the generator's state after the draw are the same.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _pairwise_sq(pts: np.ndarray) -> np.ndarray:
    """Squared distance between every two rows of pts."""
    return ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)


def _seed_indices(sq_dists: np.ndarray, k: int, rng: np.random.Generator) -> list[int]:
    """Row indices of D^2-weighted centroid seeds, from the pairwise table.

    The first seed is uniform; each next one is drawn with probability
    proportional to the squared distance to the nearest chosen seed.  When
    every remaining distance is zero (all points identical) the draw falls
    back to uniform.
    """
    m = sq_dists.shape[0]
    seeds = [int(rng.integers(m))]
    d2 = sq_dists[seeds[0]]
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(m))
        else:
            idx = _draw_index(d2 / total, rng)
        seeds.append(idx)
        d2 = np.minimum(d2, sq_dists[idx])
    return seeds


def kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """D^2-weighted centroid seeding (see _seed_indices): the seed points."""
    pts = np.asarray(points, dtype=float)
    m = pts.shape[0]
    if m < k:
        raise ValueError(f"need at least {k} points, got {m}")
    return pts[_seed_indices(_pairwise_sq(pts), k, rng)]


def _assign(pts, centroids):
    d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1), d2.min(axis=1).sum()


def _seize_empty(pts, centroids, labels) -> None:
    """Give each empty cluster the point farthest from its own centroid.

    Each empty cluster seizes a distinct point; centroids and labels are
    updated in place.
    """
    dist_own = ((pts - centroids[labels]) ** 2).sum(axis=1)
    for j in range(centroids.shape[0]):
        if not (labels == j).any():
            farthest = int(dist_own.argmax())
            centroids[j] = pts[farthest]
            labels[farthest] = j
            dist_own[farthest] = -1.0


def kmeans_cluster(points: np.ndarray, k: int, rng: np.random.Generator) -> Clustering:
    """Lloyd iterations from a K-means++ seed, minimizing the potential.

    The pairwise squared-distance table is computed once: its rows weight
    the K-means++ draws, its seed columns give the first assignment, and
    the Clustering carries it for silhouette.  Each update takes every
    centroid at once from per-cluster sums and member counts (np.bincount,
    which adds members in point order as mean(axis=0) does).  Stops once
    no point is reassigned and no centroid moves further than MOVEMENT_TOL
    (or after KMEANS_MAX_ITER iterations).  An empty cluster keeps its
    centroid until it seizes the point currently farthest from its own
    centroid.  Fewer than k distinct points raise ValueError.

    An update that reassigns no point, with no cluster empty and finite
    centroids, also ends the run when another iteration is left: that
    iteration would rebuild the same centroids from the same labels,
    reassign them identically and settle.  Its potential, equal to this
    update's, is still appended, so phi_history has the length, and
    len(phi_history) - 1 the iteration count, of the run without this stop.
    Without the finite check a NaN centroid, whose movement test never
    passes, would end a run that otherwise goes on to KMEANS_MAX_ITER.
    """
    pts = np.asarray(points, dtype=float)
    m, d = pts.shape
    if m < k or k < 1:
        raise ValueError(f"need at least {k} points for {k} clusters, got {m}")

    sq_dists = _pairwise_sq(pts)
    seeds = _seed_indices(sq_dists, k, rng)
    centroids = pts[seeds]
    # squared distances from every point to each seed
    seed_d2 = sq_dists[:, seeds]
    labels = seed_d2.argmin(axis=1)
    history = [seed_d2.min(axis=1).sum()]
    coords = pts.ravel()
    offsets = np.arange(d)
    for it in range(KMEANS_MAX_ITER):
        counts = np.bincount(labels, minlength=k)
        # bin j * d + c sums coordinate c over the members of cluster j
        flat = (labels[:, None] * d + offsets).ravel()
        sums = np.bincount(flat, weights=coords, minlength=k * d).reshape(k, d)
        full = counts.all()
        if full:
            new_centroids = sums / counts[:, None]
        else:
            filled = counts > 0
            new_centroids = centroids.copy()
            new_centroids[filled] = sums[filled] / counts[filled, None]
            # repair empty clusters before the next assignment
            _seize_empty(pts, new_centroids, labels)
        new_labels, phi_new = _assign(pts, new_centroids)
        unchanged = (new_labels == labels).all()
        old_centroids = centroids
        centroids, labels = new_centroids, new_labels
        history.append(phi_new)
        if unchanged:
            moved = np.sqrt(((new_centroids - old_centroids) ** 2).sum(axis=1)).max()
            if moved <= MOVEMENT_TOL:
                break
            if full and it + 1 < KMEANS_MAX_ITER and np.isfinite(new_centroids).all():
                history.append(phi_new)  # the settling iteration's potential
                break
    # an assignment gives identical points one label, so fewer than k
    # distinct points always leave a cluster empty here; with at least k,
    # ties between centroids can starve one, and a final seize pass
    # occupies every cluster
    if not np.bincount(labels, minlength=k).all():
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
        assignment=labels.copy(),
        potential=float(history[-1]),
        phi_history=[float(p) for p in history],
        points=pts,
        sq_dists=sq_dists,
    )


def silhouette(clustering: Clustering) -> np.ndarray:
    """Per-point silhouette values for a clustering with k >= 2.

    s(i) compares the mean distance to the point's own cluster a(i) with
    the smallest mean distance to another cluster b(i); points in singleton
    clusters score 0.
    """
    if clustering.k < 2:
        raise ValueError("silhouette needs at least two clusters")
    pts = clustering.points
    labels = clustering.assignment
    m = pts.shape[0]
    k = clustering.k
    sq_dists = clustering.sq_dists
    dist = np.sqrt(_pairwise_sq(pts) if sq_dists is None else sq_dists)
    onehot = np.zeros((m, k))
    onehot[np.arange(m), labels] = 1.0
    sizes = onehot.sum(axis=0)
    if sizes.min() == 0:
        raise ValueError("every cluster must be non-empty")
    # mean distance from every point to every cluster (self included)
    mean_to = dist @ onehot / sizes
    own_size = sizes[labels]
    # a(i): own-cluster mean excluding the zero self-distance
    a = mean_to[np.arange(m), labels] * own_size / np.maximum(own_size - 1, 1)
    b = np.where(onehot.astype(bool), np.inf, mean_to).min(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        scores = np.where(a < b, 1.0 - a / b, b / a - 1.0)
    # singletons score 0, and so does a = b (where b / a - 1 is NaN if a = b = 0)
    scores[(own_size == 1) | (a == b)] = 0.0
    return scores


def crossover_clone_exchange(
    individual: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Clone the individual twice.

    Swapping slots between two identical clones leaves both equal to the
    parent, so the children are two copies of it; only mutation makes
    them differ.
    """
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
    if not flags.any():
        return np.sort(individual)
    used = np.zeros(len(hist), dtype=bool)
    used[individual] = True
    pool = np.flatnonzero(~used).tolist()
    out = individual.copy()
    for slot in np.flatnonzero(flags):
        if not pool:
            break
        out[slot] = pool.pop(int(rng.integers(len(pool))))
    return np.sort(out)


def _median_rows(rows) -> tuple[float, float, float]:
    """D_M, C_M and C_max of a cluster's (duration, count) rows.

    Rows are sorted by duration, then count; M is the lower
    occurrence-weighted median row and C_max the count of the last row.
    Plain Python numbers, so screening a cluster costs no numpy call; the
    running totals add in row order, as a cumsum does.  Raises ValueError
    or DegenerateClusterError when the rows cannot give a lifetime.
    """
    if len(rows) < 2:
        raise ValueError("cluster must contain at least two (duration, count) points")
    if min(c for _, c in rows) <= 0:
        raise ValueError("occurrence counts must be positive")
    rows = sorted(rows)
    if rows[0][0] == rows[-1][0]:
        raise ValueError("cluster must span at least two distinct durations")
    cum = list(itertools.accumulate(c for _, c in rows))
    d_m, c_m = rows[bisect.bisect_left(cum, cum[-1] / 2.0)]
    # max-duration point; ties broken towards the higher count (sort order)
    c_max = rows[-1][1]
    if c_max == c_m:
        raise DegenerateClusterError(
            "median and maximum-duration counts coincide; decay rate undefined"
        )
    return d_m, c_m, c_max


def extract_tau(points: np.ndarray, bin_width: float) -> float:
    """Convert a winning cluster to a lifetime.

    With M the cluster's occurrence-weighted median point (lower median),
    D_M its duration, C_M its count and C_max the count of the cluster's
    longest-duration point:

        tau = D_M / (ln 2 * |ln C_max - ln C_M|)

    The ln 2 converts the median of an exponential decay to its mean; the
    absolute value keeps tau positive on decaying histograms where the
    longest point carries the lowest count.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("cluster must contain at least two (duration, count) points")
    d_m, c_m, c_max = _median_rows(pts.tolist())
    return float(d_m * bin_width / (_LN2 * abs(math.log(c_max) - math.log(c_m))))


def _normalize(points: np.ndarray) -> np.ndarray:
    """Min-max scale both axes to [0, 1] over the individual."""
    pts = np.asarray(points, dtype=float)
    lo = pts.min(axis=0)
    span = pts.max(axis=0) - lo
    span[span == 0.0] = 1.0
    return (pts - lo) / span


def _candidate_tau(points: np.ndarray, clustering: Clustering, bin_width: float):
    """Extract a lifetime from the tightest extractable cluster.

    Clusters are tried in order of increasing mean member distance to
    their centroid (lowest index on ties).  Clusters that _median_rows,
    the checks inside extract_tau, rejects are dropped before any
    tightness is computed, so extract_tau is called at most once, on the
    cluster it returns for, and tightness only when at least two clusters
    remain.  Returns the lifetime or None.
    """
    labels = clustering.assignment
    members: list[list] = [[] for _ in range(clustering.k)]
    for label, row in zip(labels.tolist(), points.tolist()):
        members[label].append(row)
    candidates = []
    for j, rows in enumerate(members):
        try:
            _median_rows(rows)
        except (DegenerateClusterError, ValueError):
            continue
        candidates.append(j)
    if not candidates:
        return None
    best = candidates[0]
    if len(candidates) > 1:
        own = np.sqrt(((clustering.points - clustering.centroids[labels]) ** 2).sum(axis=1))
        # a per-cluster mean, not a bincount: over 8 or more members .mean()
        # sums pairwise, and a last-bit change could reorder near-ties
        best = min(candidates, key=lambda j: own[labels == j].mean())
    return extract_tau(points[labels == best], bin_width)


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
    winner above the silhouette threshold contributes the lifetime of its
    tightest cluster to the estimate log and the population is respawned;
    otherwise two independently mutated clones of the winner form the next
    generation.  After every K_PATIENCE consecutive sub-threshold
    generations the cluster count steps through [2, min(K_MAX, subset
    size)].  Returns the rolling median once the last ROLLING_WINDOW
    accepted estimates agree to STABILITY_REL_TOL, or the blended
    estimate log at config.max_iterations.  The result is always clamped
    to config.tau_range.
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
    # from the first generation and keeps the blend defined when clusters
    # are too count-degenerate to extract from (scarce-data regime).
    tau0 = heuristic_estimate(hist, config.tau_range)
    estimates: list[float] = [tau0]
    log_rows: list[tuple[int, float, float, int]] = []
    pairs = hist.pairs()

    k = max(2, min(K_INIT, subset_size))
    k_hi = max(2, min(K_MAX, subset_size))
    streak = 0
    individuals = [spawn_individual(hist, generator) for _ in range(2)]
    termination = "max_iterations"
    tau_final = None
    std_err = 0.0

    for iteration in range(config.max_iterations):
        scored = []
        for ind in individuals:
            points = pairs[ind]
            clustering = kmeans_cluster(_normalize(points), k, generator)
            sil = float(silhouette(clustering).mean())
            tau_c = _candidate_tau(points, clustering, hist.bin_width)
            if tau_c is None:
                # no usable cluster: worst-case penalty keeps such solutions
                # from outcompeting extractable ones
                score = sil - ELITISM_PENALTY_WEIGHT
            else:
                ref = float(np.mean(estimates[-ROLLING_WINDOW :]))
                score = sil - ELITISM_PENALTY_WEIGHT * abs(tau_c - ref) / ref
            scored.append((score, sil, tau_c, ind))
        score, sil, tau_c, winner = max(scored, key=lambda s: s[0])

        if score > SILHOUETTE_THRESHOLD and tau_c is not None:
            estimates.append(tau_c)
            log_rows.append((iteration, tau_c, sil, k))
            streak = 0
            if len(estimates) >= ROLLING_WINDOW:
                window = np.asarray(estimates[-ROLLING_WINDOW :])
                med = float(np.median(window))
                if med > 0 and (window.max() - window.min()) / med <= STABILITY_REL_TOL:
                    tau_final = med
                    std_err = float(window.std(ddof=1) / math.sqrt(window.size))
                    termination = "stability"
                    break
            individuals = [spawn_individual(hist, generator) for _ in range(2)]
        else:
            streak += 1
            child_a, child_b = crossover_clone_exchange(winner, generator)
            individuals = [
                mutate(child_a, hist, generator),
                mutate(child_b, hist, generator),
            ]
            if streak >= K_PATIENCE:
                # cycle the cluster count through [2, k_hi]
                k = k + 1 if k < k_hi else 2
                streak = 0

    if tau_final is None:
        if not np.all(np.isfinite(estimates)):
            raise NoEstimateError("estimate log is not finite")
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
