"""Supervised multi-feature regression for dwell lifetimes.

A dwell histogram is flattened into a dense occurrence row
[1, x_1, ..., x_n] (featurize) and a ridge-regularized linear model maps
it straight to a lifetime (estimate).  train_model solves the weights in
closed form from a TrainingSet, the (N, n + 1) feature matrix of a
simulated corpus whose labels are known exactly.  There is one model per
state and per trace duration: raw occurrence counts scale with trace
length, so a model is only calibrated for the bin width and duration it
was trained on, and records both.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dwell import DwellHistogram, binarize, dwell_histogram
from .emitter import (
    DEFAULT_MEAN_OFF_COUNTS,
    DEFAULT_MEAN_ON_COUNTS,
    EmitterModel,
    generate_trace,
)
from .errors import EmptyHistogramError, RankDeficientError
from .estimate import RateEstimate

# With 20 training sets and hundreds of features the least-squares system
# is wildly underdetermined, and at this lambda the predictions collapse to
# the corpus prior (measured on the default corpus and acceptance seeds):
# at 0.2 s every prediction is the label mean, 15.4-15.9 ms, with a spread
# of 0.04 ms over 100 test traces; at 2 s even the training-set
# predictions top out at 21 ms against labels up to 42 ms; on 2 s (on) and
# 20 s (off) test traces the spread, 0.47 and 0.42 ms, is 5-6x below the
# Cramer-Rao floor tau/sqrt(N), so the output does not follow the data.
DEFAULT_RIDGE_LAMBDA = 3000.0
DEFAULT_TRAINING_SETS = 20
# Default label range for training corpora, in seconds: spans the ms-scale
# decade typical of blinking statistics.
DEFAULT_TAU_RANGE = (3e-3, 45e-3)


@dataclass(eq=False)
class TrainingSet:
    """Labeled lifetimes and their feature rows [1, x_1, ..., x_n].

    features is the (N, n + 1) matrix, one row per label.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if self.features.ndim != 2 or self.features.shape[0] != self.labels.size:
            raise ValueError("features must hold one row per label")
        if self.labels.size and np.any(self.labels <= 0):
            raise ValueError("labels must be positive lifetimes")

    @property
    def N(self) -> int:
        return self.labels.size

    @property
    def n(self) -> int:
        return self.features.shape[1] - 1

    def matrix(self) -> np.ndarray:
        return self.features


@dataclass
class MfrModel:
    """Trained weight vector plus the protocol it is calibrated for."""

    weights: np.ndarray
    n: int
    bin_width: float
    trained_duration: float
    ridge_lambda: float

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:
            raise ValueError("n must be an integer of at least 1")
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.size != self.n + 1:
            raise ValueError("weight length must be n + 1")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")
        if not (self.bin_width > 0 and self.trained_duration > 0):
            raise ValueError("bin_width and trained_duration must be positive")


def default_feature_count(tau_hi: float, bin_width: float) -> int:
    """Feature count covering dwells up to ten times the longest lifetime."""
    return int(math.ceil(10.0 * tau_hi / bin_width))


def featurize(hist: DwellHistogram, n: int) -> np.ndarray:
    """Zero-padded dense occurrence row [1, x_1, ..., x_n].

    Occurrences at duration indices beyond n are dropped.
    """
    if n < 1:
        raise ValueError("feature count must be positive")
    row = np.zeros(n + 1)
    row[0] = 1.0
    keep = hist.indices <= n
    row[hist.indices[keep]] = hist.occurrences[keep]
    return row


def estimate(
    model: MfrModel, hist: DwellHistogram, trace_duration: float | None = None
) -> RateEstimate:
    """Featurize a histogram and predict its lifetime with the model.

    Raises ValueError when the histogram's bin width differs from the
    model's (feature i counts dwells of i bins).  Warns when the trace
    duration differs from the duration the model was trained on (raw
    counts scale with trace length).  A prediction that is not a positive
    lifetime is returned with converged False; diagnostics["truncated"]
    says whether dwells longer than the model's n bins were dropped.  The
    model gives no uncertainty, so std_err is NaN.
    """
    if not math.isclose(hist.bin_width, model.bin_width, rel_tol=1e-9):
        raise ValueError(
            f"model bin width {model.bin_width} s differs from "
            f"trace bin width {hist.bin_width} s"
        )
    if trace_duration is not None and not math.isclose(
        trace_duration, model.trained_duration, rel_tol=1e-6
    ):
        warnings.warn(
            f"model was trained on {model.trained_duration} s traces but the "
            f"trace is {trace_duration} s; prediction may be miscalibrated",
            stacklevel=2,
        )
    tau = float(model.weights @ featurize(hist, model.n))
    return RateEstimate(
        tau_hat=tau,
        std_err=float("nan"),
        method="mfr",
        converged=bool(np.isfinite(tau) and tau > 0),
        diagnostics={"truncated": bool(len(hist) and hist.indices[-1] > model.n)},
    )


def _log_stratified(lo: float, hi: float, N: int, rng: np.random.Generator) -> np.ndarray:
    """Log-uniform draws, one per equal slice of the log range."""
    ratio = hi / lo
    return lo * ratio ** ((np.arange(N) + rng.random(N)) / N)


def generate_training_corpus(
    tau_range: tuple[float, float],
    N: int,
    trace_duration: float,
    *,
    bin_width: float,
    photon_noise: str | None = "poisson",
    rng=None,
) -> tuple[TrainingSet, TrainingSet]:
    """Simulate N labeled traces and featurize them, per state.

    Both lifetimes of each training emitter are drawn log-uniformly from
    tau_range (one stratified draw per log-decade slice, so a small corpus
    still covers the range evenly); the on-corpus labels each trace with
    its tau_on and the off-corpus with its tau_off.  Each trace gets an
    independent seed derived from rng, so the corpus is deterministic and
    order-independent.  Rows have default_feature_count(tau_range[1],
    bin_width) features.
    """
    lo, hi = tau_range
    if not 0 < lo < hi < np.inf:
        raise ValueError("tau_range must satisfy 0 < lo < hi < inf")
    if N < 1:
        raise ValueError("need at least one training set")
    generator = np.random.default_rng(rng)
    n = default_feature_count(hi, bin_width)

    labels_on = generator.permutation(_log_stratified(lo, hi, N, generator))
    labels_off = generator.permutation(_log_stratified(lo, hi, N, generator))
    child_seeds = generator.integers(0, 2**63 - 1, size=N)
    threshold = 0.5 * (DEFAULT_MEAN_ON_COUNTS + DEFAULT_MEAN_OFF_COUNTS)

    # a draw with too few transitions keeps its all-zero row
    features_on = np.zeros((N, n + 1))
    features_on[:, 0] = 1.0
    features_off = features_on.copy()
    for i in range(N):
        model = EmitterModel(tau_on=labels_on[i], tau_off=labels_off[i])
        trace = generate_trace(
            model, trace_duration, bin_width, photon_noise, rng=int(child_seeds[i])
        )
        try:
            hist_on, hist_off = dwell_histogram(binarize(trace, threshold))
        except EmptyHistogramError:
            continue
        features_on[i] = featurize(hist_on, n)
        features_off[i] = featurize(hist_off, n)
    return (
        TrainingSet(features_on, labels_on),
        TrainingSet(features_off, labels_off),
    )


def train_model(
    corpus: TrainingSet,
    *,
    bin_width: float,
    trained_duration: float,
    ridge_lambda: float = DEFAULT_RIDGE_LAMBDA,
) -> MfrModel:
    """Solve the regularized least-squares weights in closed form.

    Minimizes sum_i (w.x_i - tau_i)^2 + ridge_lambda * ||w_1..n||^2 (the
    bias weight is unpenalized) via the normal equations.  With
    ridge_lambda = 0 the system is singular whenever the feature matrix
    has rank below n + 1 (always so when N < n + 1), which is reported as
    RankDeficientError.  The model records the bin width and trace
    duration it is calibrated for.
    """
    if ridge_lambda < 0:
        raise ValueError("ridge_lambda must be non-negative")
    if corpus.N < 1:
        raise ValueError("training corpus is empty")
    n = corpus.n
    X = corpus.matrix()
    y = corpus.labels
    if ridge_lambda == 0.0:
        rank = np.linalg.matrix_rank(X)
        if rank < n + 1:
            raise RankDeficientError(
                f"{corpus.N} training sets of rank {rank} cannot determine "
                f"{n + 1} weights without ridge"
            )
    reg = np.full(n + 1, ridge_lambda)
    reg[0] = 0.0  # bias unpenalized
    A = X.T @ X + np.diag(reg)
    try:
        np.linalg.cholesky(A)  # A must be positive definite, not merely invertible
        weights = np.linalg.solve(A, X.T @ y)
    except np.linalg.LinAlgError as exc:
        raise RankDeficientError("normal equations are singular") from exc
    return MfrModel(weights, n, bin_width, trained_duration, ridge_lambda)


def train_pair(
    tau_range: tuple[float, float],
    N: int,
    trace_duration: float,
    *,
    bin_width: float,
    photon_noise: str | None,
    rng,
) -> dict[str, MfrModel]:
    """Train the on- and off-state models on one simulated corpus."""
    corpora = generate_training_corpus(
        tau_range, N, trace_duration, bin_width=bin_width, photon_noise=photon_noise, rng=rng
    )
    return {
        state: train_model(corpus, bin_width=bin_width, trained_duration=trace_duration)
        for state, corpus in zip(("on", "off"), corpora)
    }
