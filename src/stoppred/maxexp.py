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
a closed form.  Each bracketed term is quadrature._piece_tail, the same
per-piece term that analytics._LTable sums, and the first integral is the
exponential-integral quadrature.log_time_integral.  Each theta_i is one
bracketed Brent root, so one pass costs O(m) root solves.  A sequence with
theta_1 >= 1, clamped to min(theta_i, 1), yields a valid robust threshold;
the outer search finds the feasibility boundary theta_1 = 1 as a Brent
root in alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._roots import brentq
from .priors import E_INV, LambdaPair, _count, lambda_pair
from .quadrature import _piece_tail, log_time_integral
from .thresholds import ThresholdFn, robustify

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
        # with no steps the middle is the 0-piece alone, and robustify makes
        # the wait-until-lambda1 rule of the empty band
        breaks = np.append(self.grid[1 : len(self.theta_values) + 1], 1.0)
        return robustify(ThresholdFn(breaks, np.append(self.theta_values, 0.0)), self.pair)


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
        theta = math.exp(log_theta)
        return (z1 * log_time_integral(theta, z1, 1.0) + tail) / theta

    hi = math.log(2.0)
    while lhs(hi) > alpha:
        hi += math.log(2.0)
        if hi > 40.0:
            raise ArithmeticError("failed to bracket the step equation from above")
    lo = hi - math.log(2.0)
    step = math.log(2.0)
    while lhs(lo) < alpha:
        hi = lo
        lo -= step
        step *= 2.0
        if lo < _LOG_FLOOR:
            if lhs(_LOG_FLOOR) < alpha:
                return math.exp(_LOG_FLOOR)
            lo = _LOG_FLOOR
            break
    log_theta = brentq(lambda x: lhs(x) - alpha, lo, hi, xtol=1e-15, rtol=1e-15)
    return math.exp(log_theta)


def solve_steps(alpha, beta, m):
    """Run the backward recursion for given (alpha, beta) on an m-step grid.

    A beta where lambda_pair returns a double root (1/e, and just below
    it) degenerates to an empty middle band (the wait-until-1/e rule),
    feasible exactly when alpha <= 1/e.  beta = 0 is rejected: it
    puts lambda2 at 1, and the initialization integral needs lambda2 < 1.
    """
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    m = _count(m, "m", 2)
    pair = lambda_pair(beta)
    if pair.lambda1 == pair.lambda2:
        return StepSolution(
            beta=float(beta),
            pair=pair,
            m=m,
            alpha=float(alpha),
            theta_values=np.empty(0),
            feasible=alpha <= E_INV + 1e-12,
        )
    if pair.lambda2 >= 1.0 - 1e-12:
        raise ValueError(f"beta = {beta:g} puts lambda2 at 1, where the m-step recursion has no start")
    z = np.linspace(pair.lambda1, pair.lambda2, m + 1).tolist()  # Python floats for the scalar loop
    thetas = np.empty(m)
    tail = 0.0
    for i in range(m - 1, -1, -1):
        theta = _piece_equation(z[i + 1], tail, alpha)
        thetas[i] = theta
        if i > 0:
            # tail term of piece (z_i, z_{i+1}] for the next steps
            tail += _piece_tail(theta, z[i], z[i + 1])[0]
    if not np.all(np.diff(thetas) <= 0.0):  # written so that a NaN fails it, as in ThresholdFn
        raise ArithmeticError("step values failed to come out non-increasing")
    return StepSolution(
        beta=float(beta),
        pair=pair,
        m=m,
        alpha=float(alpha),
        theta_values=thetas,
        feasible=bool(thetas[0] >= 1.0),
    )


def max_alpha_for_beta(beta, m):
    """Largest consistency alpha whose recursion stays feasible at this beta.

    theta_1 decreases in alpha (checked on every solve), so the feasibility
    boundary theta_1(alpha) = 1 is one bracketed Brent root on [0.3, 1]:
    the curve never drops below the prior-free value 1/e, so 0.3 is
    feasible, and alpha = 1 is not.  Returns the largest feasible alpha
    solved, within 2e-13 of the root, with its solution (alpha, solution).
    """
    pair = lambda_pair(beta)
    if pair.lambda1 == pair.lambda2:  # the empty band at the peak: the wait-until-1/e rule
        return E_INV, solve_steps(E_INV, beta, m)
    solved = {}

    def theta1_minus_one(a):
        if a not in solved:  # brentq evaluates both ends again
            sol = solve_steps(a, beta, m)
            t1 = sol.theta_values[0]
            if any((a - a1) * (t1 - s1.theta_values[0]) > 0.0 for a1, s1 in solved.items()):
                raise ArithmeticError("theta_1 is not decreasing in alpha")
            solved[a] = sol
        return solved[a].theta_values[0] - 1.0

    if theta1_minus_one(0.3) < 0.0:
        raise ArithmeticError("recursion infeasible at alpha = 0.3")
    if theta1_minus_one(1.0) >= 0.0:
        raise ArithmeticError("recursion unexpectedly feasible at alpha = 1")
    brentq(theta1_minus_one, 0.3, 1.0, xtol=1e-13, rtol=1e-15)
    alpha = max(a for a, sol in solved.items() if sol.feasible)
    return alpha, solved[alpha]


@dataclass(frozen=True)
class CurvePoint:
    beta: float
    alpha: float | None
    solution: StepSolution | None
    error: str | None = None


def tradeoff_curve_maxexp(betas, m):
    """max_alpha_for_beta across a beta grid; failures become gaps.

    Arguments outside the curve's domain raise ValueError before any point
    is solved: a beta outside [0, 1/e] (NaN included) or m < 2.  A beta
    inside it that the recursion cannot solve (beta = 0, where lambda2 = 1)
    becomes a gap.
    """
    betas = [float(beta) for beta in betas]
    for beta in betas:
        lambda_pair(beta)
    m = _count(m, "m", 2)
    points = []
    for beta in betas:
        try:
            alpha, sol = max_alpha_for_beta(beta, m)
        except (ValueError, ArithmeticError) as exc:
            points.append(CurvePoint(beta, None, None, str(exc)))
        else:
            points.append(CurvePoint(beta, alpha, sol))
    return points
