"""Blinking-trace synthesis and on/off lifetime estimation.

Simulates two-state telegraph fluorescence traces with exactly known
switching lifetimes and extracts those lifetimes back out of scarce data
with three estimators: a Levenberg-Marquardt exponential fit, a supervised
multi-feature regression, and an unsupervised genetic algorithm over
K-means++ clusterings.  A seeded benchmark harness compares the three.
"""

from .bench import (
    BenchCell,
    Scenario,
    accuracy,
    analyze_trace,
    default_scenario,
    fig2_scenario,
    precision,
    run_trial,
    sweep,
    train_mfr_models,
)
from .dwell import (
    DwellHistogram,
    EmpiricalDensity,
    StateSequence,
    auto_threshold,
    binarize,
    dwell_histogram,
    empirical_density,
    mean_dwell,
)
from .emitter import (
    BlinkTrace,
    EmitterModel,
    generate_trace,
    read_trace,
    write_trace,
)
from .errors import (
    BlinkfitError,
    DegenerateClusterError,
    DivergenceError,
    EmptyHistogramError,
    InsufficientDataError,
    NoSeparationError,
    RankDeficientError,
)
from .estimate import RateEstimate
from .ga import (
    GaConfig,
    crossover_clone_exchange,
    extract_tau,
    heuristic_estimate,
    kmeans_cluster,
    mutate,
    run_ga,
    silhouette,
    spawn_individual,
)
from .levmar import fit_exponential, lm_solve
from .mfr import (
    MfrModel,
    TrainingSet,
    featurize,
    generate_training_corpus,
    train_model,
)

__version__ = "0.1.0"
