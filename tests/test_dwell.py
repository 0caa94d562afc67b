import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blinkfit import dwell
from blinkfit.dwell import (
    DwellHistogram,
    StateSequence,
    _count_histogram,
    _count_values,
    _local_maxima,
    auto_threshold,
    binarize,
    dwell_histogram,
    empirical_density,
    mean_dwell,
)
from blinkfit.emitter import _BLOCK_BINS, BlinkTrace, EmitterModel, generate_trace
from blinkfit.errors import EmptyHistogramError, NoSeparationError


def trace_from(counts, bin_width=1e-3):
    return BlinkTrace(bin_width=bin_width, counts=np.asarray(counts, dtype=float))


def hist(state, pairs, bin_width=1e-3):
    idx, occ = zip(*sorted(pairs.items()))
    return DwellHistogram(state, bin_width, np.array(idx), np.array(occ))


class TestBinarize:
    def test_hand_example(self):
        seq = binarize(trace_from([10, 10, 2, 10]), 5.0)
        np.testing.assert_array_equal(seq.states, [True, True, False, True])

    def test_all_above_threshold(self):
        seq = binarize(trace_from([50, 60, 70]), 5.0)
        assert seq.states.all()

    def test_midpoint_recovers_simulator_states(self):
        model = EmitterModel(tau_on=15e-3, tau_off=45e-3)
        trace = generate_trace(model, 20.0, 1e-3, None, rng=13)
        seq = binarize(trace, 55.0)
        np.testing.assert_array_equal(seq.states, trace.hidden_states)


class TestAutoThreshold:
    def test_bimodal_poisson(self):
        rng = np.random.default_rng(42)
        low = rng.poisson(10.0, size=5000)
        high = rng.poisson(100.0, size=5000)
        counts = np.concatenate([low, high])
        rng.shuffle(counts)
        thr = auto_threshold(trace_from(counts))
        assert 25.0 < thr < 85.0
        # oracle: exhaustive scan of thresholds that perfectly split the two
        # generating populations; ours must be one of them
        separating = [
            t for t in range(counts.max() + 1) if low.max() <= t < high.min()
        ]
        assert separating, "populations unexpectedly overlap for this seed"
        assert min(separating) <= thr <= max(separating) + 1

    def test_constant_trace_rejected(self):
        with pytest.raises(NoSeparationError):
            auto_threshold(trace_from([50] * 1000))

    def test_two_level_midpoint(self):
        counts = np.array([100.0, 10.0] * 200)
        assert auto_threshold(trace_from(counts)) == pytest.approx(55.0)

    def test_threshold_splits_default_simulation(self):
        model = EmitterModel(tau_on=15e-3, tau_off=45e-3)
        trace = generate_trace(model, 10.0, 1e-3, "poisson", rng=3)
        thr = auto_threshold(trace)
        seq = binarize(trace, thr)
        mismatch = (seq.states != trace.hidden_states).mean()
        assert mismatch < 0.01


class TestCountValues:
    """_count_values casts into one buffer and clips it in place; the integers
    must equal the three-array expression it replaced, whatever the counts."""

    @staticmethod
    def old_values(counts):
        return np.clip(np.rint(counts).astype(int), 0, None)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_matches_old_expression_on_edge_values(self):
        counts = np.array(
            [np.nan, np.inf, -np.inf, 1e30, -1e30, 2.0**62, 2.0**63, 1e18, -7.0,
             0.5, 1.5, 2.5, -0.5, -1.5, 3.49999, 0.0, -0.0]
        )
        new = _count_values(counts)
        assert new.dtype == self.old_values(counts).dtype
        np.testing.assert_array_equal(new, self.old_values(counts))

    def test_matches_old_expression_on_traces(self):
        rng = np.random.default_rng(5)
        for noise in ("poisson", None):
            counts = generate_trace(EmitterModel(15e-3, 45e-3), 5.0, 1e-3, noise, rng=9).counts
            np.testing.assert_array_equal(_count_values(counts), self.old_values(counts))
        halves = rng.integers(-20, 200, 10000) / 2.0
        np.testing.assert_array_equal(_count_values(halves), self.old_values(halves))


def bimodal(rng, size):
    """Poisson counts around 10 and, in 30 % of the bins, around 100."""
    return np.where(rng.random(size) < 0.3, rng.poisson(100.0, size), rng.poisson(10.0, size))


def low_then_bimodal(rng):
    counts = np.concatenate([rng.poisson(10.0, _BLOCK_BINS), bimodal(rng, _BLOCK_BINS + 3)])
    assert counts[:_BLOCK_BINS].max() < counts[_BLOCK_BINS:].max()
    return counts


def bimodal_then_low(rng):
    counts = np.concatenate([bimodal(rng, _BLOCK_BINS), rng.poisson(10.0, _BLOCK_BINS + 5)])
    assert counts[:_BLOCK_BINS].max() > counts[_BLOCK_BINS:].max()
    return counts


def signed(rng):
    size = 2 * _BLOCK_BINS + 1
    counts = np.where(rng.random(size) < 0.3, rng.normal(100.0, 10.0, size),
                      rng.normal(2.0, 5.0, size))
    assert (counts < -0.5).any()
    return counts


class TestCountHistogram:
    """_count_histogram tallies _BLOCK_BINS counts at a time.  The histogram,
    the threshold and every NoSeparationError must be those of one bincount
    over all the counts."""

    CASES = {
        "largest count in a later block": low_then_bimodal,
        "largest count in the first block": bimodal_then_low,
        "negative counts": signed,
        "exactly one block": lambda rng: bimodal(rng, _BLOCK_BINS),
        "one bin": lambda rng: np.array([7.0]),
        "two blocks and 3 bins": lambda rng: bimodal(rng, 2 * _BLOCK_BINS + 3),
        "constant": lambda rng: np.full(2 * _BLOCK_BINS + 3, 50.0),
        "unimodal": lambda rng: rng.poisson(50.0, 3 * _BLOCK_BINS),
        "simulated, poisson": lambda rng: generate_trace(
            EmitterModel(15e-3, 45e-3), 150.0, 1e-3, "poisson", rng=rng).counts,
        "simulated, no noise": lambda rng: generate_trace(
            EmitterModel(15e-3, 45e-3), 150.0, 1e-3, None, rng=rng).counts,
    }

    @staticmethod
    def one_shot(counts):
        return np.bincount(_count_values(counts)).astype(float)

    @staticmethod
    def outcome(trace):
        try:
            return auto_threshold(trace)
        except NoSeparationError:
            return "no separation"

    @pytest.mark.parametrize("case", CASES)
    def test_matches_one_bincount(self, case, monkeypatch):
        counts = np.asarray(self.CASES[case](np.random.default_rng(11)), dtype=float)
        hist = _count_histogram(counts)
        assert hist.dtype == float
        assert hist.tobytes() == self.one_shot(counts).tobytes()
        trace = trace_from(counts)
        threshold = self.outcome(trace)
        with monkeypatch.context() as patched:
            patched.setattr(dwell, "_count_histogram", self.one_shot)
            assert self.outcome(trace) == threshold
        no_separation = case in ("one bin", "constant", "unimodal")
        assert (threshold == "no separation") == no_separation

    def test_auto_threshold_peak(self):
        # the counts of one block in int64, not of the whole trace (8 MB)
        trace = generate_trace(EmitterModel(15e-3, 45e-3), 1000.0, 1e-3, "poisson", rng=2023)
        auto_threshold(trace_from([100.0, 10.0] * 200))  # first-call set-up
        tracemalloc.start()
        try:
            auto_threshold(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestLocalMaxima:
    @pytest.mark.parametrize(
        "x, peaks",
        [
            ([0, 1, 0], [1]),
            ([0, 2, 2, 0], [1]),  # 2-bin plateau: its left bin
            ([0, 2, 2, 2, 1], [2]),  # 3-bin plateau: its middle bin
            ([0, 1, 1, 2, 0], [3]),  # shoulder (rise, flat, rise) is no peak
            ([0, 1, 2, 2], []),  # plateau running into the end
            ([2, 2, 1, 0], []),  # plateau running into the start
            ([0, 3, 1, 3, 0], [1, 3]),
            ([], []),
            ([5], []),
        ],
    )
    def test_plateaus(self, x, peaks):
        np.testing.assert_array_equal(_local_maxima(np.asarray(x, dtype=float)), peaks)

    def test_matches_scipy_find_peaks(self):
        signal = pytest.importorskip("scipy.signal")
        rng = np.random.default_rng(0)
        for _ in range(2000):
            # few levels, so plateaus, shoulders and edge runs are common
            x = rng.integers(0, 4, size=int(rng.integers(0, 30))).astype(float)
            np.testing.assert_array_equal(_local_maxima(x), signal.find_peaks(x)[0])


class TestDwellHistogram:
    def test_hand_example_with_censoring(self):
        states = [True, True, False, False, False, True, False, True]
        seq = StateSequence(1e-3, states)
        hist_on, hist_off = dwell_histogram(seq)
        assert dict(zip(hist_off.indices, hist_off.occurrences)) == {1: 1, 3: 1}
        assert dict(zip(hist_on.indices, hist_on.occurrences)) == {1: 1}

    def test_alternating(self):
        seq = StateSequence(1e-3, [True, False, True, False, True])
        hist_on, hist_off = dwell_histogram(seq)
        assert dict(zip(hist_on.indices, hist_on.occurrences)) == {1: 1}
        assert dict(zip(hist_off.indices, hist_off.occurrences)) == {1: 2}

    def test_renewal_rate(self):
        # fine bins: sub-bin dwells would otherwise be censored into neighbours
        model = EmitterModel(tau_on=15e-3, tau_off=45e-3)
        trace = generate_trace(model, 200.0, 0.5e-3, None, rng=8)
        hist_on, _ = dwell_histogram(binarize(trace, 55.0))
        expected = 200.0 / (15e-3 + 45e-3)
        assert hist_on.total == pytest.approx(expected, rel=0.05)

    def test_no_interior_dwell(self):
        with pytest.raises(EmptyHistogramError):
            dwell_histogram(StateSequence(1e-3, [True, True, True, True]))

    def test_too_short(self):
        with pytest.raises(EmptyHistogramError):
            dwell_histogram(StateSequence(1e-3, [True, False]))

    @given(st.lists(st.booleans(), min_size=3, max_size=200))
    def test_duration_bookkeeping(self, states):
        """On + off + censored boundary durations account for every bin."""
        seq = StateSequence(1e-3, states)
        arr = np.asarray(states)
        change = np.flatnonzero(arr[1:] != arr[:-1])
        starts = np.concatenate([[0], change + 1])
        ends = np.concatenate([change + 1, [arr.size]])
        boundary = (ends[0] - starts[0]) + ((ends[-1] - starts[-1]) if starts.size > 1 else 0)
        try:
            hist_on, hist_off = dwell_histogram(seq)
        except EmptyHistogramError:
            assert boundary == arr.size
            return
        interior = sum(
            int((h.indices * h.occurrences).sum()) for h in (hist_on, hist_off)
        )
        assert interior + boundary == arr.size

    def test_matches_simulator_dwell_log(self):
        model = EmitterModel(tau_on=15e-3, tau_off=45e-3)
        trace = generate_trace(model, 50.0, 1e-3, None, rng=31)
        hist_on, hist_off = dwell_histogram(binarize(trace, 55.0))
        # oracle: run lengths of the hidden state sequence, boundaries dropped
        hidden = trace.hidden_states
        change = np.flatnonzero(hidden[1:] != hidden[:-1])
        starts = np.concatenate([[0], change + 1])
        ends = np.concatenate([change + 1, [hidden.size]])
        lengths = (ends - starts)[1:-1]
        values = hidden[starts][1:-1]
        for state_hist, mask in ((hist_on, values), (hist_off, ~values)):
            idx, occ = np.unique(lengths[mask], return_counts=True)
            np.testing.assert_array_equal(state_hist.indices, idx)
            np.testing.assert_array_equal(state_hist.occurrences, occ)


class TestEmpiricalDensity:
    def test_normalization(self):
        d = empirical_density(hist("on", {1: 2, 3: 2}))
        np.testing.assert_allclose(d.densities, [0.5, 0.5])

    def test_singleton(self):
        d = empirical_density(hist("on", {5: 7}))
        np.testing.assert_allclose(d.densities, [1.0])

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        occ = rng.integers(1, 50, size=40)
        h = DwellHistogram("off", 1e-3, np.arange(1, 41), occ)
        assert abs(empirical_density(h).densities.sum() - 1.0) < 1e-12

    @given(st.integers(1, 10))
    def test_scaling_invariance(self, scale):
        h1 = hist("on", {1: 2, 4: 3, 9: 1})
        h2 = hist("on", {1: 2 * scale, 4: 3 * scale, 9: scale})
        np.testing.assert_allclose(
            empirical_density(h1).densities, empirical_density(h2).densities
        )

    def test_empty_rejected(self):
        h = DwellHistogram("on", 1e-3, np.array([], dtype=int), np.array([], dtype=int))
        with pytest.raises(ValueError):
            empirical_density(h)


class TestMeanDwell:
    def test_weighted_mean(self):
        assert mean_dwell(hist("on", {1: 2, 3: 2})) == pytest.approx(2e-3)

    def test_singleton(self):
        assert mean_dwell(hist("on", {10: 1})) == pytest.approx(10e-3)

    def test_long_trace_recovers_tau(self):
        # fine binning keeps the sub-bin dwell censoring bias well below 3%
        model = EmitterModel(tau_on=15e-3, tau_off=45e-3)
        trace = generate_trace(model, 500.0, 0.25e-3, "poisson", rng=19)
        hist_on, _ = dwell_histogram(binarize(trace, auto_threshold(trace)))
        assert mean_dwell(hist_on) == pytest.approx(15e-3, rel=0.03)
