"""Dwell-time statistics extracted from a photocount trace.

The trace is thresholded into an on/off state sequence, consecutive runs
of one state become dwell durations, and the per-state tallies of run
lengths form the dwell histograms that every estimator consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .emitter import BlinkTrace
from .errors import EmptyHistogramError, NoSeparationError

# A second count-histogram mode only counts if the valley between it and the
# main mode dips below this fraction of the smaller peak.
_VALLEY_RATIO = 0.5
_SMOOTH_KERNEL = np.array([1.0, 2.0, 3.0, 2.0, 1.0]) / 9.0


@dataclass(eq=False)
class StateSequence:
    """Binary on/off assignment per trace bin (True = on)."""

    bin_width: float
    states: np.ndarray

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=bool)

    def __len__(self) -> int:
        return self.states.size


@dataclass(eq=False)
class DwellHistogram:
    """Occurrence tally of dwell durations for one state.

    indices are run lengths in units of bin_width (strictly increasing,
    >= 1); occurrences are the matching tallies.  The support is sparse:
    unobserved durations are simply absent.
    """

    state: str
    bin_width: float
    indices: np.ndarray
    occurrences: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=int)
        self.occurrences = np.asarray(self.occurrences, dtype=int)
        if self.indices.size != self.occurrences.size:
            raise ValueError("indices and occurrences must have equal length")
        if self.indices.size:
            if np.any(self.indices < 1):
                raise ValueError("duration indices must be >= 1")
            if np.any(np.diff(self.indices) <= 0):
                raise ValueError("duration indices must be strictly increasing")
            if np.any(self.occurrences < 0):
                raise ValueError("occurrences must be non-negative")

    def __len__(self) -> int:
        return self.indices.size

    @property
    def durations(self) -> np.ndarray:
        """Dwell durations in seconds."""
        return self.indices * self.bin_width

    @property
    def total(self) -> int:
        return int(self.occurrences.sum())

    def pairs(self) -> np.ndarray:
        """(duration_index, occurrences) rows."""
        return np.column_stack([self.indices, self.occurrences])


@dataclass(eq=False)
class EmpiricalDensity:
    """Discrete dwell probability density on the histogram support."""

    state: str
    bin_width: float
    indices: np.ndarray
    densities: np.ndarray

    @property
    def durations(self) -> np.ndarray:
        return self.indices * self.bin_width


def binarize(trace: BlinkTrace, threshold: float) -> StateSequence:
    """Threshold the trace: a bin is on iff counts > threshold."""
    if len(trace) == 0:
        raise ValueError("cannot binarize an empty trace")
    return StateSequence(trace.bin_width, trace.counts > threshold)


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of the local maxima of x.

    A run of equal values is a peak when the step before it rises and the
    step after it falls; it is reported by its middle bin, rounded down.  A
    run that reaches either end of x is not a peak.
    """
    step = np.diff(x)
    steps = np.flatnonzero(step)
    rise = step[steps] > 0
    keep = rise[:-1] & ~rise[1:]
    return (steps[:-1][keep] + 1 + steps[1:][keep]) // 2


def _count_values(counts: np.ndarray) -> np.ndarray:
    """Counts rounded to integers (half to even), negatives raised to 0.

    np.clip(np.rint(counts).astype(int), 0, None) in one buffer: rint
    casts into it, then the clip works in place.
    """
    values = np.rint(counts, out=np.empty(counts.size, dtype=int), casting="unsafe")
    return np.clip(values, 0, None, out=values)


def auto_threshold(trace: BlinkTrace) -> float:
    """Place a threshold at the midpoint of the two count-histogram modes.

    The count histogram of a well-separated blinking trace is bimodal; the
    two dominant peaks are located and the midpoint of their positions is
    returned.  Raises NoSeparationError when no second mode with a genuine
    valley towards the main mode exists (unimodal counts).
    """
    if len(trace) == 0:
        raise ValueError("cannot threshold an empty trace")
    hist = np.bincount(_count_values(trace.counts)).astype(float)
    smooth = np.convolve(hist, _SMOOTH_KERNEL, mode="same")

    main = int(np.argmax(smooth))
    # zero-pad so modes at the first/last count value are still peaks
    peaks = _local_maxima(np.concatenate([[0.0], smooth, [0.0]])) - 1
    candidates = sorted(p for p in set(peaks) | {main} if p != main and smooth[p] > 0)

    best = None
    for cand in candidates:
        lo, hi = sorted((cand, main))
        if hi - lo < 2:
            continue
        valley = smooth[lo + 1 : hi].min()
        if valley <= _VALLEY_RATIO * min(smooth[cand], smooth[main]):
            key = (smooth[cand], abs(cand - main))
            if best is None or key > best[0]:
                best = (key, cand)
    if best is None:
        raise NoSeparationError(
            "count histogram has no second mode; on/off levels are not separated"
        )
    return (main + best[1]) / 2.0


def dwell_histogram(seq: StateSequence) -> tuple[DwellHistogram, DwellHistogram]:
    """Tally run lengths of consecutive identical states, per state.

    The first and last runs are censored by the recording boundaries (their
    true durations are unknown) and are excluded.  Returns the (on, off)
    histogram pair; a state with no interior run yields an empty histogram.
    """
    states = seq.states
    if states.size < 3:
        raise EmptyHistogramError("need at least 3 bins for an interior dwell")
    change = np.flatnonzero(states[1:] != states[:-1])
    starts = np.concatenate([[0], change + 1])
    ends = np.concatenate([change + 1, [states.size]])
    lengths = ends - starts
    values = states[starts]
    # boundary runs are censored
    lengths = lengths[1:-1]
    values = values[1:-1]
    if lengths.size == 0:
        raise EmptyHistogramError("no interior dwell between the censored boundary runs")
    out = []
    for name, mask in (("on", values), ("off", ~values)):
        idx, occ = np.unique(lengths[mask], return_counts=True)
        out.append(DwellHistogram(name, seq.bin_width, idx, occ))
    return out[0], out[1]


def empirical_density(hist: DwellHistogram) -> EmpiricalDensity:
    """Normalize occurrences to a discrete probability density."""
    total = hist.total
    if total <= 0:
        raise ValueError("histogram has no occurrences")
    return EmpiricalDensity(
        hist.state, hist.bin_width, hist.indices.copy(), hist.occurrences / total
    )


def mean_dwell(hist: DwellHistogram) -> float:
    """Occurrence-weighted mean dwell duration in seconds."""
    total = hist.total
    if total <= 0:
        raise ValueError("histogram has no occurrences")
    return float((hist.durations * hist.occurrences).sum() / total)
