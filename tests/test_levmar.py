import math

import numpy as np
import pytest

from blinkfit.bench import default_scenario, run_trial
from blinkfit.dwell import (
    DwellHistogram,
    EmpiricalDensity,
    auto_threshold,
    binarize,
    dwell_histogram,
    empirical_density,
)
from blinkfit.emitter import EmitterModel, generate_trace
from blinkfit.errors import InsufficientDataError
from blinkfit.levmar import LM_TAU_SANITY_FACTOR, fit_exponential, lm_solve


def exp_density(y0, amp, tau, t_ms):
    t = np.asarray(t_ms, dtype=float)
    d = y0 + amp * np.exp(-t * 1e-3 / tau)
    return EmpiricalDensity("on", 1e-3, t.astype(int), d)


class TestLmSolve:
    def test_linear_problem(self):
        # three damped steps suffice to land on the solution; the fourth
        # meets the stopping rule
        xs = []

        def res(p):
            xs.append(p.copy())
            return np.array([p[0] - 3.0])

        jac = lambda p: np.array([[1.0]])
        x, _, diag = lm_solve(res, jac, [0.0])
        assert xs[3][0] == pytest.approx(3.0, abs=1e-8)
        assert x[0] == pytest.approx(3.0, abs=1e-8)
        assert diag["converged"] and diag["iterations"] == 4

    def test_rosenbrock(self):
        def res(p):
            return np.array([1.0 - p[0], 10.0 * (p[1] - p[0] ** 2)])

        def jac(p):
            return np.array([[-1.0, 0.0], [-20.0 * p[0], 10.0]])

        x, _, diag = lm_solve(res, jac, [-1.2, 1.0])
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-8)
        assert diag["converged"]
        assert diag["iterations"] == 44

    def test_zero_residual_init(self):
        res = lambda p: np.zeros(2)
        jac = lambda p: np.eye(2)
        x, _, diag = lm_solve(res, jac, [1.0, 2.0])
        np.testing.assert_array_equal(x, [1.0, 2.0])
        assert diag["accepted"] == 0
        assert diag["converged"]

    def test_accepted_costs_strictly_decrease(self):
        costs = []

        def res(p):
            r = np.array([p[0] ** 2 - 2.0, np.sin(p[0])])
            return r

        def jac(p):
            return np.array([[2.0 * p[0]], [np.cos(p[0])]])

        # wrap to record the cost of accepted iterates via the solver path
        xs = []

        def recording_res(p):
            xs.append(p.copy())
            return res(p)

        lm_solve(recording_res, jac, [3.0])
        seen = [float(res(x) @ res(x)) for x in xs]
        # reconstruct the accepted subsequence: monotone lower envelope
        accepted = [seen[0]]
        for c in seen[1:]:
            if c < accepted[-1]:
                accepted.append(c)
        assert all(b < a for a, b in zip(accepted, accepted[1:]))

    def test_start_at_minimum_converges(self):
        # the start is the minimum of a cost that cannot reach zero: the
        # first step is zero and rejected, which meets xtol at once
        res = lambda p: np.array([np.hypot(p[0] - 2.0, 1.0)])
        jac = lambda p: np.array([[(p[0] - 2.0) / np.hypot(p[0] - 2.0, 1.0)]])
        x, _, diag = lm_solve(res, jac, [2.0])
        assert diag["converged"] and diag["reason"] == "xtol"
        assert diag["iterations"] == 1 and diag["accepted"] == 0
        assert x[0] == 2.0

    def test_off_state_fit_at_minimum_converges(self):
        # 200 s bench trial whose off-state fit reaches its minimum after 3
        # accepted steps: testing xtol only after accepted steps ran it to
        # MAX_ITER (200) and reported converged False with this same tau
        est = run_trial(default_scenario(base_seed=99), 200.0, "lm", 164)["off"]
        assert est.converged
        assert est.diagnostics["reason"] == "xtol"
        assert est.diagnostics["iterations"] == 11
        assert est.diagnostics["accepted"] == 3
        assert est.tau_hat == 0.045996742099088266


    def test_singular_covariance_is_nan(self):
        # the second parameter moves no residual, so J^T J cannot be inverted
        x, cov, diag = lm_solve(lambda p: np.array([p[0] - 1.0, p[0] - 2.0]),
                                lambda p: np.array([[1.0, 0.0], [1.0, 0.0]]), [0.0, 0.0])
        assert x[0] == pytest.approx(1.5) and diag["converged"]
        assert cov.shape == (2, 2) and np.isnan(cov).all()


class TestFitExponential:
    def test_noiseless_recovery(self):
        density = exp_density(0.0, 0.066, 15e-3, np.arange(1, 101))
        est = fit_exponential(density)
        assert est.converged
        assert est.tau_hat == pytest.approx(15e-3, rel=1e-6)

    def test_insufficient_support(self):
        density = exp_density(0.0, 0.1, 10e-3, [1, 2, 3])
        with pytest.raises(InsufficientDataError):
            fit_exponential(density)

    def test_default_start_with_offset(self):
        # start y0 = min, A = max - min, tau = weighted mean dwell (28 ms)
        density = exp_density(0.01, 0.05, 20e-3, np.arange(1, 80))
        est = fit_exponential(density)
        assert est.converged
        assert est.tau_hat == pytest.approx(20e-3, rel=1e-5)
        assert est.diagnostics["iterations"] == 6

    @pytest.mark.parametrize("curvature, rejected", [(1e-5, False), (1e-6, True)])
    def test_sanity_rule(self, curvature, rejected):
        # 1 - t/100 + c t^2 (t in bins) is fitted best by tau = 1 / (200 c)
        # bins: 0.5 s for c = 1e-5, about 48 x the 10 ms start tau, and 5 s
        # for c = 1e-6, about 490 x; the optimizer stops on xtol either way
        t = np.arange(1, 21)
        density = EmpiricalDensity("off", 1e-3, t, 1.0 - t / 100.0 + curvature * t**2)
        est = fit_exponential(density)
        diag = est.diagnostics
        assert est.tau_hat == pytest.approx(1e-3 / (200 * curvature), rel=0.03)
        assert (est.tau_hat >= LM_TAU_SANITY_FACTOR * diag["tau_init"]) is rejected
        assert diag["converged"] and diag["reason"] == "xtol"
        assert est.converged is not rejected
        assert diag.get("sanity_rejected", False) is rejected

    @pytest.mark.parametrize(
        "occurrences, tau_hat, reason, converged",
        [
            # the fit runs away to a tau where exp(-t/tau) is 1 at every t
            (np.arange(1, 9), 7.407467296666405e89, "xtol", False),
            # a flat density starts at A = 0, with zero cost and a zero tau column
            (np.ones(8), 4.5e-3, "zero cost", True),
        ],
        ids=["rising", "flat"],
    )
    def test_unknown_std_err_is_nan(self, occurrences, tau_hat, reason, converged):
        # J^T J is singular in both, so np.linalg.inv fails; np.linalg.pinv
        # gave these a std_err of 0.0.  tau_hat and converged are unchanged.
        hist = DwellHistogram("on", 1e-3, np.arange(1, 9), occurrences)
        est = fit_exponential(empirical_density(hist))
        assert math.isnan(est.std_err)
        assert (est.tau_hat, est.diagnostics["reason"], est.converged) == (
            pytest.approx(tau_hat, rel=1e-12), reason, converged)

    def test_short_trace_failure_mode(self):
        # 2 s traces: the fit mostly fails the benchmark predicate or is
        # grossly wrong, which is the baseline's documented weakness
        model = EmitterModel(tau_on=15e-3, tau_off=45e-3)
        bad = 0
        n = 40
        for seed in range(n):
            trace = generate_trace(model, 2.0, 1e-3, "poisson", rng=seed)
            try:
                _, hist_off = dwell_histogram(binarize(trace, auto_threshold(trace)))
                est = fit_exponential(empirical_density(hist_off))
                rel_err = abs(est.tau_hat - 45e-3) / 45e-3
                if not est.converged or rel_err > 0.5:
                    bad += 1
            except ValueError:
                bad += 1
        assert bad >= n // 2

    def test_std_err_grows_with_less_data(self):
        # nested subsamples of one noisy dataset: fewer points, larger error bar
        rng = np.random.default_rng(3)
        t = np.arange(1, 161)
        d = 0.002 + 0.06 * np.exp(-t / 25.0) + rng.normal(0.0, 5e-4, t.size)
        errs = []
        for m in (160, 80, 40, 20):
            density = EmpiricalDensity("on", 1e-3, t[:m], d[:m])
            errs.append(fit_exponential(density).std_err)
        assert errs[0] < errs[1] < errs[2] < errs[3]

    def test_long_trace_end_to_end(self):
        model = EmitterModel(tau_on=15e-3, tau_off=45e-3)
        trace = generate_trace(model, 200.0, 1e-3, "poisson", rng=77)
        hist_on, hist_off = dwell_histogram(binarize(trace, auto_threshold(trace)))
        est_on = fit_exponential(empirical_density(hist_on))
        est_off = fit_exponential(empirical_density(hist_off))
        assert est_on.converged and est_off.converged
        assert est_on.tau_hat == pytest.approx(15e-3, rel=0.1)
        assert est_off.tau_hat == pytest.approx(45e-3, rel=0.1)

