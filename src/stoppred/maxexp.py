"""Backward-recursion solver for the expectation-objective trade-off curve.

For a robustness level beta with roots (lambda1, lambda2), a step threshold
with values theta_1 >= ... >= theta_m on a uniform grid of [lambda1,
lambda2] certifies consistency alpha when L(z_{i+1}) >= alpha * theta_i at
every grid endpoint, where

    L(z) = z int_z^1 theta(z)^t / t dt
         + sum_{j > i} [ int_{z_j}^{z_{j+1}} (t - z_j) theta_j^t / t dt
                         + (z_{j+1} - z_j) int_{z_{j+1}}^1 theta_j^t / t dt ].

The recursion solves each theta_i from the equality form, starting at
z = lambda2 and caching the accumulated tail sum.  Every integral above is
a closed form (quadrature.pow_integral and the exponential-integral
quadrature.log_time_integral), and each theta_i is one bracketed Brent
root, so one pass costs O(m) root solves.  A sequence with theta_1 >= 1,
clamped to min(theta_i, 1), yields a valid robust threshold; the outer
search bisects on alpha for the feasibility boundary theta_1 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .priors import E_INV, LambdaPair, lambda_pair
from .quadrature import log_time_integral, pow_integral
from .thresholds import ThresholdFn, dynkin_threshold, robustify

__all__ = ["StepSolution", "solve_steps", "max_alpha_for_beta", "tradeoff_curve_maxexp", "CurvePoint"]


@dataclass(frozen=True)
class StepSolution:
    """One solved backward recursion (theta values before clamping)."""

    beta: float
    pair: LambdaPair
    m: int
    alpha: float
    theta_values: np.ndarray
    feasible: bool

    @property
    def grid(self):
        return np.linspace(self.pair.lambda1, self.pair.lambda2, self.m + 1)

    def threshold(self):
        """The certified robust threshold: clamped steps inside the bands."""
        if len(self.theta_values) == 0:
            return dynkin_threshold(self.pair.lambda1)
        z = self.grid
        middle = ThresholdFn(np.append(z[1:], 1.0), np.append(np.minimum(self.theta_values, 1.0), 0.0))
        return robustify(middle, self.pair)

    def unclamped_threshold(self):
        """Raw step values as a threshold on (lambda1, lambda2], 0 beyond."""
        if len(self.theta_values) == 0:
            raise ValueError("degenerate solution has no step values")
        z = self.grid
        breaks = np.append(z[1:], 1.0)
        vals = np.append(self.theta_values, 0.0)
        return ThresholdFn(breaks, vals)


_LOG_FLOOR = -700.0  # exp of this is the smallest step value worth resolving


def _piece_equation(z1, tail, alpha):
    """Solve (z1/theta) int_{z1}^1 theta^t/t dt + tail/theta = alpha for theta.

    The left side decreases from infinity to 0 as theta grows, so one Brent
    solve inside a sign-changing bracket lands on the unique root.  Near
    the right edge of the band the root collapses like exp(-c/(1 - z1)) and
    quickly leaves the double range, so the bracketing and the solve run in
    log space; roots below exp(-700) are floored there, where their
    contribution to any integral is far below double precision anyway.
    """

    def lhs(log_theta):
        theta = np.exp(log_theta)
        return (z1 * log_time_integral(theta, z1, 1.0) + tail) / theta

    hi = np.log(2.0)
    while lhs(hi) > alpha:
        hi += np.log(2.0)
        if hi > 40.0:
            raise ArithmeticError("failed to bracket the step equation from above")
    lo = hi - np.log(2.0)
    step = np.log(2.0)
    while lhs(lo) < alpha:
        hi = lo
        lo -= step
        step *= 2.0
        if lo < _LOG_FLOOR:
            if lhs(_LOG_FLOOR) < alpha:
                return float(np.exp(_LOG_FLOOR))
            lo = _LOG_FLOOR
            break
    log_theta = brentq(lambda x: lhs(x) - alpha, lo, hi, xtol=1e-15, rtol=1e-15)
    return float(np.exp(log_theta))


def solve_steps(alpha, beta, m):
    """Run the backward recursion for given (alpha, beta) on an m-step grid.

    beta = 1/e degenerates to an empty middle band (the wait-until-1/e
    rule), feasible exactly when alpha <= 1/e.  beta = 0 is rejected: the
    initialization integral needs lambda2 < 1.
    """
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    if not 0.0 < beta <= E_INV + 1e-15:
        raise ValueError("beta must lie in (0, 1/e]")
    if int(m) != m or m < 2:
        raise ValueError("need integer m >= 2")
    pair = lambda_pair(beta)
    if pair.lambda2 - pair.lambda1 <= 1e-12:
        return StepSolution(
            beta=float(beta),
            pair=pair,
            m=int(m),
            alpha=float(alpha),
            theta_values=np.empty(0),
            feasible=alpha <= E_INV + 1e-12,
        )
    if pair.lambda2 >= 1.0 - 1e-12:
        raise ValueError("beta too close to 0: lambda2 = 1 degenerates the initialization")
    z = np.linspace(pair.lambda1, pair.lambda2, m + 1)
    thetas = np.empty(m)
    tail = 0.0
    for i in range(m - 1, -1, -1):
        theta = _piece_equation(z[i + 1], tail, alpha)
        thetas[i] = theta
        if i > 0:
            # bracketed tail term of piece (z_i, z_{i+1}] for the next steps
            tail += (
                pow_integral(theta, z[i], z[i + 1])
                - z[i] * log_time_integral(theta, z[i], z[i + 1])
                + (z[i + 1] - z[i]) * log_time_integral(theta, z[i + 1], 1.0)
            )
    if np.any(np.diff(thetas) > 1e-9):
        raise ArithmeticError("step values failed to come out non-increasing")
    return StepSolution(
        beta=float(beta),
        pair=pair,
        m=int(m),
        alpha=float(alpha),
        theta_values=thetas,
        feasible=bool(thetas[0] >= 1.0),
    )


def max_alpha_for_beta(beta, m, tol=1e-4):
    """Largest consistency alpha whose recursion stays feasible at this beta.

    Bisection on alpha over the feasibility predicate theta_1(alpha) >= 1;
    theta_1 decreases in alpha (checked empirically on every evaluation), so
    the predicate is monotone and the boundary is located to width tol.
    Returns (alpha, solution at alpha).
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if abs(beta - E_INV) <= 1e-15:
        return E_INV, solve_steps(E_INV, E_INV, m)
    seen = []

    def evaluate(a):
        sol = solve_steps(a, beta, m)
        seen.append((a, float(sol.theta_values[0])))
        for a1, t1 in seen[:-1]:
            if (a - a1) * (seen[-1][1] - t1) > 0.0:
                raise ArithmeticError("theta_1 is not decreasing in alpha")
        return sol

    # the curve never drops below the prior-free value 1/e, so 0.3 is a safe
    # feasible start; halving covers numerically awkward cases
    lo = 0.3
    best = evaluate(lo)
    while not best.feasible:
        lo *= 0.5
        if lo < 0.02:
            raise ArithmeticError("recursion infeasible at every probed alpha")
        best = evaluate(lo)
    hi = 1.0
    if evaluate(hi).feasible:
        raise ArithmeticError("recursion unexpectedly feasible at alpha = 1")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        sol = evaluate(mid)
        if sol.feasible:
            lo, best = mid, sol
        else:
            hi = mid
    return lo, best


@dataclass(frozen=True)
class CurvePoint:
    beta: float
    alpha: float | None
    solution: StepSolution | None
    error: str | None = None


def tradeoff_curve_maxexp(betas, m, tol=1e-4):
    """max_alpha_for_beta across a beta grid; failures become gaps."""
    points = []
    for beta in betas:
        try:
            alpha, sol = max_alpha_for_beta(float(beta), m, tol)
        except (ValueError, ArithmeticError) as exc:
            points.append(CurvePoint(float(beta), None, None, str(exc)))
        else:
            points.append(CurvePoint(float(beta), alpha, sol))
    return points
