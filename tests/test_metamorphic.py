"""Relations that hold bit for bit without any ground truth.

Time scale.  Multiplying bin_width, tau_on, tau_off and the duration by a
power of two under one seed scales every simulated dwell and bin edge
exactly in IEEE arithmetic.  The counts and both dwell histograms are
then bit-equal, and a lifetime estimated from them scales by the factor.
An absolute constant hidden in the pipeline (a tolerance in seconds, a
clip, a default tau_range) breaks the relation, so each method gets its
tau_range scaled: GA through its GaConfig, MFR through its corpus.  Both
scale exactly.

LM does not scale exactly.  Its step test ||delta|| / ||x|| <= XTOL mixes
y0 and A, densities per bin that the scaling leaves alone, with tau in
seconds, which it scales; so the same fit can stop a step sooner or
later, and converged fits agree only to a relative 1e-9.

Time reversal.  counts[::-1] holds the same count values, so it gets the
same threshold, and its interior dwells are those of the trace read
backwards: the same histograms, and the same lifetime from LM and GA.
"""

import functools

import numpy as np
import pytest

from blinkfit import mfr
from blinkfit.bench import DEFAULT_GA_TAU_RANGE, analyze_trace
from blinkfit.dwell import auto_threshold, binarize, dwell_histogram
from blinkfit.emitter import BlinkTrace, EmitterModel, generate_trace, read_trace, write_trace
from blinkfit.ga import GaConfig

SEEDS = (0, 1, 2)
FACTORS = (2.0, 0.5)
DURATION = 2.0
BIN_WIDTH = 1e-3
STATES = ("on", "off")


def simulate(seed: int, factor: float = 1.0, bin_width: float = BIN_WIDTH) -> BlinkTrace:
    model = EmitterModel(tau_on=15e-3 * factor, tau_off=45e-3 * factor)
    return generate_trace(model, DURATION * factor, bin_width * factor, "poisson", rng=seed)


def histograms(trace: BlinkTrace):
    return dwell_histogram(binarize(trace, auto_threshold(trace)))


@functools.lru_cache(maxsize=None)
def mfr_models(factor: float) -> dict:
    lo, hi = mfr.DEFAULT_TAU_RANGE
    return mfr.train_pair((lo * factor, hi * factor), mfr.DEFAULT_TRAINING_SETS,
                          DURATION * factor, bin_width=BIN_WIDTH * factor,
                          photon_noise="poisson", rng=7)


@functools.lru_cache(maxsize=None)
def estimates(seed: int, factor: float, method: str, reverse: bool = False) -> dict:
    trace = simulate(seed, factor)
    if reverse:
        trace = BlinkTrace(trace.bin_width, trace.counts[::-1])
    models = mfr_models(factor) if method == "mfr" else None
    lo, hi = DEFAULT_GA_TAU_RANGE
    ga_config = GaConfig(tau_range=(lo * factor, hi * factor))
    _, out = analyze_trace(trace, method, seed, models=models, ga_config=ga_config)
    return out


def taus(out: dict) -> np.ndarray:
    return np.array([out[state].tau_hat for state in STATES])


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("seed", SEEDS)
class TestTimeScale:
    def test_counts_and_histograms_are_bit_equal(self, seed, factor):
        base, scaled = simulate(seed), simulate(seed, factor)
        assert scaled.bin_width == factor * base.bin_width
        assert scaled.counts.tobytes() == base.counts.tobytes()
        for hist, scaled_hist in zip(histograms(base), histograms(scaled)):
            assert scaled_hist.bin_width == factor * hist.bin_width
            assert scaled_hist.indices.tobytes() == hist.indices.tobytes()
            assert scaled_hist.occurrences.tobytes() == hist.occurrences.tobytes()

    @pytest.mark.parametrize("method", ["ga", "mfr"])
    def test_ga_and_mfr_scale_exactly(self, seed, factor, method):
        base, scaled = estimates(seed, 1.0, method), estimates(seed, factor, method)
        assert taus(scaled).tobytes() == (factor * taus(base)).tobytes()
        for state in STATES:
            assert scaled[state].converged == base[state].converged
            assert scaled[state].diagnostics.get("iterations") == base[state].diagnostics.get(
                "iterations")

    def test_lm_scales_to_1e9_when_converged(self, seed, factor):
        base, scaled = estimates(seed, 1.0, "lm"), estimates(seed, factor, "lm")
        for state in STATES:
            if base[state].converged and scaled[state].converged:
                assert scaled[state].tau_hat == pytest.approx(
                    factor * base[state].tau_hat, rel=1e-9, abs=0)


def test_lm_relation_is_not_vacuous():
    converged = sum(estimates(seed, factor, "lm")[state].converged
                    for seed in SEEDS for factor in (1.0, *FACTORS) for state in STATES)
    assert converged >= 10


@pytest.mark.parametrize("bin_width, factor", [(1e-3, 2.0), (1e-3, 0.5), (1e-4, 0.5)], ids=repr)
def test_counts_survive_the_file_round_trip(tmp_path, bin_width, factor):
    base = simulate(SEEDS[0], 1.0, bin_width)
    for name, trace in [("base", base), ("scaled", simulate(SEEDS[0], factor, bin_width))]:
        path = tmp_path / f"{name}.csv"
        write_trace(trace, path)
        assert read_trace(path).counts.tobytes() == base.counts.tobytes(), name
    # at 5e-5 s the second time is written 5e-05, so that file takes the float64 pass
    assert (b"\n5e-05," in path.read_bytes()) is (bin_width * factor == 5e-5)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("method", ["lm", "ga"])
def test_time_reversal_gives_the_same_lifetimes(seed, method):
    forward, backward = estimates(seed, 1.0, method), estimates(seed, 1.0, method, reverse=True)
    assert taus(backward).tobytes() == taus(forward).tobytes()
