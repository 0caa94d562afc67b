import math

import numpy as np
import pytest

from blinkfit.dwell import DwellHistogram
from blinkfit.errors import RankDeficientError
from blinkfit.mfr import (
    MfrModel,
    TrainingSet,
    estimate,
    featurize,
    generate_training_corpus,
    train_model,
)


def hist(pairs, bin_width=1e-3):
    idx, occ = zip(*sorted(pairs.items()))
    return DwellHistogram("on", bin_width, np.array(idx), np.array(occ))


def train(corpus, ridge_lambda):
    return train_model(corpus, bin_width=1e-3, trained_duration=1.0, ridge_lambda=ridge_lambda)


def model_with(weights):
    return MfrModel(np.asarray(weights, dtype=float), len(weights) - 1, 1e-3, 1.0, 1.0)


def linear_corpus(n_points=10, n_feat=3, w0=5.0, w1=2.0, rng=None):
    rng = rng or np.random.default_rng(0)
    X = np.ones((n_points, n_feat + 1))
    X[:, 1:] = rng.integers(0, 8, size=(n_points, n_feat))
    return TrainingSet(X, w0 + w1 * X[:, 1])


class TestFeaturize:
    def test_placement_and_padding(self):
        np.testing.assert_array_equal(featurize(hist({1: 4, 3: 2}), 4), [1, 4, 0, 2, 0])
        assert not estimate(model_with(np.zeros(5)), hist({1: 4, 3: 2})).diagnostics["truncated"]

    def test_empty_support(self):
        h = DwellHistogram("on", 1e-3, np.array([], dtype=int), np.array([], dtype=int))
        np.testing.assert_array_equal(featurize(h, 3), [1, 0, 0, 0])
        assert not estimate(model_with(np.ones(4)), h).diagnostics["truncated"]

    def test_truncation_flag(self):
        np.testing.assert_array_equal(featurize(hist({5: 1}), 3), [1, 0, 0, 0])
        assert estimate(model_with(np.ones(4)), hist({5: 1})).diagnostics["truncated"]


class TestTrain:
    def test_exact_linear_recovery(self):
        corpus = linear_corpus()
        model = train(corpus, ridge_lambda=0.0)
        np.testing.assert_allclose(model.weights[:2], [5.0, 2.0], atol=1e-8)
        np.testing.assert_allclose(model.weights[2:], 0.0, atol=1e-8)
        residual = corpus.matrix() @ model.weights - corpus.labels
        assert float(residual @ residual) < 1e-8

    def test_rank_deficient_without_ridge(self):
        corpus = linear_corpus(n_points=3, n_feat=5)
        with pytest.raises(RankDeficientError):
            train(corpus, ridge_lambda=0.0)

    def test_collinear_float_features_without_ridge(self):
        # N >= n + 1, but x3 = 0.1 x1 + 0.3 x2, so X^T X is singular up to
        # rounding: the Cholesky guard must refuse it, where a plain solve
        # returns arbitrary weights
        rng = np.random.default_rng(7)
        X = np.ones((10, 4))
        X[:, 1:3] = rng.integers(0, 8, size=(10, 2))
        X[:, 3] = 0.1 * X[:, 1] + 0.3 * X[:, 2]
        corpus = TrainingSet(X, 1e-3 + 0.05 * rng.random(10))
        with pytest.raises(RankDeficientError):
            train(corpus, ridge_lambda=0.0)

    def test_collinear_float_features_over_many_seeds(self):
        # the same collinear x3 over 200 corpora: at some seeds rounding
        # leaves X^T X positive definite, so only a rank test refuses all
        for seed in range(200):
            rng = np.random.default_rng(seed)
            X = np.ones((10, 4))
            X[:, 1:3] = rng.integers(0, 8, size=(10, 2))
            X[:, 3] = 0.1 * X[:, 1] + 0.3 * X[:, 2]
            corpus = TrainingSet(X, 1e-3 + 0.05 * rng.random(10))
            with pytest.raises(RankDeficientError):
                train(corpus, ridge_lambda=0.0)

    def test_single_point_with_ridge(self):
        x = np.array([1.0, 2.0, 0.0])
        corpus = TrainingSet([x], np.array([10.0]))
        model = train(corpus, ridge_lambda=0.5)
        cost_w = (model.weights @ x - 10.0) ** 2 + 0.5 * (
            model.weights[1:] @ model.weights[1:]
        )
        cost_zero = 10.0**2
        assert cost_w <= cost_zero

    def test_ridge_limit_shrinks_slopes(self):
        # all labels equal: as lambda grows the bias absorbs the label and
        # slopes vanish (oracle: direct cost evaluation on a weight grid)
        rng = np.random.default_rng(1)
        X = np.ones((12, 5))
        X[:, 1:] = rng.integers(0, 5, size=(12, 4))
        corpus = TrainingSet(X, np.full(12, 7.0))
        prev_slope = None
        for lam in (1.0, 10.0, 100.0, 1000.0):
            model = train(corpus, ridge_lambda=lam)
            slope = float(np.abs(model.weights[1:]).sum())
            if prev_slope is not None:
                assert slope <= prev_slope + 1e-12
            prev_slope = slope
        assert model.weights[0] == pytest.approx(7.0, rel=0.05)
        assert slope < 0.01

    def test_local_optimality(self):
        corpus = linear_corpus(n_points=12, n_feat=4)
        model = train(corpus, ridge_lambda=1e-3)
        X, y = corpus.matrix(), corpus.labels
        reg = np.ones(model.weights.size)
        reg[0] = 0.0

        def cost(w):
            r = X @ w - y
            return float(r @ r + 1e-3 * (reg * w) @ w)

        base = cost(model.weights)
        rng = np.random.default_rng(42)
        for _ in range(1000):
            delta = rng.normal(0.0, 1e-3, model.weights.size)
            assert cost(model.weights + delta) >= base - 1e-12


class TestTrainingSet:
    def test_row_label_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one row per label"):
            TrainingSet(np.ones((3, 4)), np.ones(2))
        with pytest.raises(ValueError, match="one row per label"):
            TrainingSet(np.ones(4), np.ones(4))


class TestPredict:
    def test_bias_only(self):
        est = estimate(model_with([5.0, 0.0]), hist({1: 123}))
        assert est.tau_hat == 5.0 and est.converged
        # the model gives no uncertainty
        assert math.isnan(est.std_err)

    def test_single_slope(self):
        est = estimate(model_with([0.0, 1.0]), hist({1: 7}))
        assert est.tau_hat == 7.0 and est.converged

    def test_length_mismatch(self):
        # a model's weights must match its feature count, so estimate
        # always featurizes to the model's n
        with pytest.raises(ValueError, match="n \\+ 1"):
            MfrModel(np.zeros(3), 1, 1e-3, 1.0, 1.0)

    def test_feature_count_must_be_a_positive_int(self):
        # each passes the weight-length check; a float n would reach
        # featurize's np.zeros(n + 1)
        for bad in (2.0, True, 0):
            with pytest.raises(ValueError, match="n must be an integer"):
                MfrModel(np.zeros(int(bad) + 1), bad, 1e-3, 1.0, 1.0)

    def test_negative_prediction_not_converged(self, recwarn):
        est = estimate(model_with([-1.0, 0.0]), hist({1: 3}))
        assert est.tau_hat == -1.0
        assert not est.converged
        assert len(recwarn) == 0

    def test_linearity_of_slope_part(self):
        # the prediction is affine in the occurrence counts
        rng = np.random.default_rng(9)
        model = model_with(rng.normal(size=6))
        x = rng.integers(0, 9, size=5)
        z = rng.integers(0, 9, size=5)
        idx = np.arange(1, 6)

        def predict(v):
            return estimate(model, DwellHistogram("on", 1e-3, idx, v)).tau_hat

        bias = predict(np.zeros(5, dtype=int))
        assert predict(x + 2 * z) - bias == pytest.approx(
            (predict(x) - bias) + 2 * (predict(z) - bias)
        )


class TestCorpus:
    def test_shape_and_labels_in_range(self):
        on, off = generate_training_corpus(
            (1e-3, 100e-3), 20, 0.2, bin_width=1e-3, rng=0
        )
        assert on.N == off.N == 20
        assert np.all((on.labels >= 1e-3) & (on.labels <= 100e-3))
        assert np.all((off.labels >= 1e-3) & (off.labels <= 100e-3))

    def test_single_pair(self):
        on, off = generate_training_corpus((5e-3, 50e-3), 1, 0.5, bin_width=1e-3, rng=1)
        assert on.N == 1

    def test_determinism(self):
        a_on, _ = generate_training_corpus((5e-3, 50e-3), 5, 0.5, bin_width=1e-3, rng=7)
        b_on, _ = generate_training_corpus((5e-3, 50e-3), 5, 0.5, bin_width=1e-3, rng=7)
        np.testing.assert_array_equal(a_on.labels, b_on.labels)
        np.testing.assert_array_equal(a_on.matrix(), b_on.matrix())

    def test_off_error_no_worse_with_more_data(self):
        # graceful degradation: the off-state model's median error at 2 s
        # must not exceed its error at 0.2 s
        from blinkfit.dwell import auto_threshold, binarize, dwell_histogram
        from blinkfit.emitter import EmitterModel, generate_trace

        model_true = EmitterModel(tau_on=15e-3, tau_off=45e-3)
        med_errs = []
        for duration in (2.0, 0.2):
            _, corpus = generate_training_corpus(
                (3e-3, 45e-3), 20, duration, bin_width=1e-3, rng=11
            )
            mdl = train_model(corpus, bin_width=1e-3, trained_duration=duration)
            errs = []
            for seed in range(20):
                trace = generate_trace(model_true, duration, 1e-3, "poisson", rng=seed)
                try:
                    _, h_off = dwell_histogram(binarize(trace, auto_threshold(trace)))
                    est = estimate(mdl, h_off, duration)
                    errs.append(abs(est.tau_hat - 45e-3) / 45e-3)
                except ValueError:
                    errs.append(np.inf)
            med_errs.append(np.median(errs))
        assert med_errs[0] <= med_errs[1] * 1.05  # 2 s no worse than 0.2 s

    def test_duration_mismatch_warns(self):
        on, _ = generate_training_corpus((5e-3, 50e-3), 6, 0.5, bin_width=1e-3, rng=3)
        model = train_model(on, bin_width=1e-3, trained_duration=0.5)
        h = hist({1: 2, 4: 1})
        with pytest.warns(UserWarning, match="trained on"):
            estimate(model, h, trace_duration=2.0)

    def test_bin_width_mismatch_rejected(self):
        on, _ = generate_training_corpus((5e-3, 50e-3), 6, 0.5, bin_width=1e-3, rng=3)
        model = train_model(on, bin_width=1e-3, trained_duration=0.5)
        with pytest.raises(ValueError, match="bin width"):
            estimate(model, hist({1: 2, 4: 1}, bin_width=0.5e-3))
