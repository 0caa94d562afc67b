"""Levenberg-Marquardt damped least squares.

lm_solve is a small generic engine with a fixed damping schedule and
stopping rule (the module constants below); fit_exponential applies it to
the three-parameter exponential model y0 + A*exp(-t/tau) used as the
traditional baseline for dwell-density fitting, and also owns that
baseline's failure rule (LM_TAU_SANITY_FACTOR), so every caller gets one
verdict.
"""

from __future__ import annotations

import numpy as np

from .dwell import EmpiricalDensity
from .errors import DivergenceError, InsufficientDataError
from .estimate import RateEstimate

_EXP_CLIP = 700.0  # |exponent| bound, keeps exp() finite during wild steps

# Damping schedule and stopping rule of lm_solve.
LAMBDA0 = 1e-3
LAMBDA_UP = 10.0
LAMBDA_DOWN = 0.1
MAX_ITER = 200
FTOL = 1e-10
XTOL = 1e-10
# Fitted lifetimes beyond this multiple of the moment seed count as failures.
LM_TAU_SANITY_FACTOR = 100.0


def lm_solve(residual_fn, jacobian_fn, x0):
    """Minimize ||r(p)||^2 with damped Gauss-Newton steps.

    Solves (J^T J + lambda*diag(J^T J)) delta = -J^T r each iteration;
    a step is accepted only if it strictly decreases the cost, in which
    case lambda is scaled down, otherwise up.  Terminates when an accepted
    step reduces the cost by a relative FTOL or less, when any step,
    accepted or rejected, is XTOL or less relative to the parameters (so a
    fit sitting at its minimum stops once lambda has shrunk the step), or
    when MAX_ITER iterations have run.

    Returns (params, covariance, diagnostics) where covariance is the
    residual-variance-scaled inverse of J^T J at the solution and
    diagnostics records iterations, accepted steps, final cost and the
    converged flag.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(residual_fn(x), dtype=float)
    if not np.all(np.isfinite(r)):
        raise DivergenceError("residual is not finite at the initial point")
    cost = float(r @ r)
    lam = LAMBDA0
    accepted = 0
    iterations = 0
    converged = cost <= 1e-300
    reason = "zero cost" if converged else "max_iter"

    while not converged and iterations < MAX_ITER:
        iterations += 1
        J = np.asarray(jacobian_fn(x), dtype=float)
        if not np.all(np.isfinite(J)):
            raise DivergenceError("Jacobian is not finite")
        jtj = J.T @ J
        g = J.T @ r
        damp = np.diag(jtj).copy()
        damp[damp == 0.0] = 1.0
        try:
            delta = np.linalg.solve(jtj + lam * np.diag(damp), -g)
        except np.linalg.LinAlgError as exc:
            raise DivergenceError("singular damped normal matrix") from exc
        if not np.all(np.isfinite(delta)):
            raise DivergenceError("non-finite parameter step")
        x_new = x + delta
        r_new = np.asarray(residual_fn(x_new), dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            cost_new = float(r_new @ r_new) if np.all(np.isfinite(r_new)) else np.inf
        step = np.linalg.norm(delta) / max(np.linalg.norm(x), 1e-300)
        if cost_new < cost:
            reduction = (cost - cost_new) / cost
            x, r, cost = x_new, r_new, cost_new
            lam = max(lam * LAMBDA_DOWN, 1e-15)
            accepted += 1
            if reduction <= FTOL:
                converged, reason = True, "ftol"
            elif step <= XTOL:
                converged, reason = True, "xtol"
            elif cost <= 1e-300:
                converged, reason = True, "zero cost"
        else:
            lam *= LAMBDA_UP
            if step <= XTOL:
                converged, reason = True, "xtol"

    J = np.asarray(jacobian_fn(x), dtype=float)
    jtj = J.T @ J
    dof = max(J.shape[0] - J.shape[1], 1)
    try:
        cov = np.linalg.inv(jtj) * (cost / dof)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj) * (cost / dof)
    diagnostics = {
        "iterations": iterations,
        "accepted": accepted,
        "cost": cost,
        "converged": converged,
        "reason": reason,
    }
    return x, cov, diagnostics


def _exp_model(t, y0, amp, tau):
    safe_tau = tau if tau != 0.0 else 1e-300
    return y0 + amp * np.exp(np.clip(-t / safe_tau, -_EXP_CLIP, _EXP_CLIP))


def fit_exponential(density: EmpiricalDensity) -> RateEstimate:
    """Fit y0 + A*exp(-t/tau) to a dwell density and report tau.

    The start point is y0 = min density, A = max - min and tau = the
    density-weighted mean dwell.  The returned estimate carries the
    standard error from the scaled inverse approximate Hessian and the
    optimizer diagnostics.  converged is False when the iteration budget was
    exhausted, or when tau falls outside (0, LM_TAU_SANITY_FACTOR x the
    start tau): such a fit also records diagnostics["sanity_rejected"] =
    True and keeps the optimizer's own "converged" and "reason".
    """
    t = density.durations
    d = np.asarray(density.densities, dtype=float)
    if t.size < 4:
        raise InsufficientDataError(
            f"exponential fit needs at least 4 support points, got {t.size}"
        )
    tau0 = float((t * d).sum() / d.sum())

    def residual(p):
        return _exp_model(t, p[0], p[1], p[2]) - d

    def jacobian(p):
        safe_tau = p[2] if p[2] != 0.0 else 1e-300
        e = np.exp(np.clip(-t / safe_tau, -_EXP_CLIP, _EXP_CLIP))
        return np.column_stack([np.ones_like(t), e, p[1] * e * t / safe_tau**2])

    x0 = [float(d.min()), float(d.max() - d.min()), tau0]
    params, cov, diag = lm_solve(residual, jacobian, x0)
    tau_hat = float(params[2])
    tau_err = float(np.sqrt(max(cov[2, 2], 0.0)))
    diag.update({"y0": float(params[0]), "A": float(params[1]), "tau_init": tau0})
    converged = bool(diag["converged"])
    if not (0.0 < tau_hat < LM_TAU_SANITY_FACTOR * tau0):
        converged = False
        diag["sanity_rejected"] = True
    return RateEstimate(
        tau_hat=tau_hat, std_err=tau_err, method="lm", converged=converged, diagnostics=diag
    )
