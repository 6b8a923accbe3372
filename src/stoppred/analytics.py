"""Closed-form and quadrature evaluators for the performance formulas.

Everything here is a pure function of a threshold function (a step map) and
a handful of scalars.  Step thresholds make every integral over the time of
the prefix maximum an exact finite sum; only integrals over the arrival time
of the accepted value need numerical quadrature.  The recurring integral
``int v**t / t dt`` is an exponential integral and is evaluated in closed
form (see quadrature.log_time_integral), as is the inner integral of
maxprob_alpha.

These evaluators serve double duty: they generate the trade-off curves, and
they act as oracles against the Monte Carlo engine (and vice versa).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import exp1

from ._roots import brentq
from .priors import E_INV, lambda_pair
from .quadrature import adaptive_simpson, gauss_refine, log_time_integral, pow_integral

__all__ = [
    "c_series",
    "solve_constant_c",
    "maxprob_alpha",
    "googol_win_formula",
    "win_probability",
    "maxexp_tail_prob",
    "consistency_density",
    "consistency_integral",
    "check_consistency_conditions",
]

TOL = 1e-9  # absolute error budget of each quadrature-based evaluator


def c_series(c):
    """sum_{k=1}^{60} c**k / (k! k); the tail beyond 60 terms is < 1e-60 for c < 1."""
    total = 0.0
    term = 1.0
    for k in range(1, 61):
        term *= c / k
        total += term / k
    return total


@lru_cache(maxsize=1)
def solve_constant_c():
    """Root of c_series(c) = 1 on (0, 1), about 0.80435, by Brent's method."""
    return brentq(lambda c: c_series(c) - 1.0, 0.0, 1.0, xtol=1e-15, rtol=1e-15)


def maxprob_alpha(beta):
    """Best achievable win probability at robustness level beta.

    alpha(beta) = beta + int_{lambda1}^{lambda2} int_s^1 exp(-c t/(1-s)) / t dt ds

    with (lambda1, lambda2) the roots for beta and c the series constant.
    The inner integral is E1(kappa s) - E1(kappa) with kappa = c/(1-s)
    (Abramowitz & Stegun 5.1.1); the outer integrand has a logarithmic
    singularity at s = 0 (reached only at beta = 0), so the lower limit is
    clipped to 1e-12, which perturbs the result by under 1e-10.
    """
    beta = float(beta)
    if not (0.0 <= beta <= E_INV + 1e-15):
        raise ValueError("beta must lie in [0, 1/e]")
    if beta >= E_INV - 1e-13:
        # the roots coincide at the peak, so the band is empty
        return min(beta, E_INV)
    pair = lambda_pair(beta)
    lam1, lam2 = pair.lambda1, pair.lambda2
    if lam2 - lam1 <= 1e-15:
        return beta
    c = solve_constant_c()

    def inner(s):
        if s >= 1.0 - 1e-15:
            return 0.0
        kappa = c / (1.0 - s)
        return float(exp1(kappa * s) - exp1(kappa))

    lo = max(lam1, 1e-12)
    return float(beta) + adaptive_simpson(inner, lo, lam2, TOL)


def googol_win_formula(qvals, theta):
    """Win probability with fixed values and random arrivals, evaluated exactly.

    qvals are the predicted-prior cdf levels of the realized values, sorted
    ascending; the last entry is the maximum's level.  The probability is

        int_0^1 1{q_n > theta(t)} ((1-t)^(n-1)
            + sum_i (1-t)^(n-1-i) int_0^t 1{q_i <= theta(s)} ds) dt,

    which is piecewise polynomial for a step threshold, so all integrals
    below are closed-form (no quadrature error).
    """
    q = np.asarray(qvals, dtype=float)
    if q.ndim != 1 or len(q) == 0:
        raise ValueError("qvals must be a non-empty 1-d array")
    if np.any(np.diff(q) < 0):
        raise ValueError("qvals must be sorted ascending")
    if np.any(q < 0.0) or np.any(q > 1.0):
        raise ValueError("qvals must lie in [0, 1]")
    n = len(q)
    q_top = q[-1]
    lower = q[:-1]
    m = np.arange(n - 2, -1, -1, dtype=float)  # exponents n-1-i for i = 1..n-1
    r = np.zeros(n - 1)  # running int_0^t 1{value i survives theta(s)} ds
    total = 0.0
    for a, b, v in theta.pieces():
        wa, wb = 1.0 - a, 1.0 - b
        # the zero phase accepts outright, matching the engine's convention
        survives = (lower <= v) & (v > 0.0)
        if q_top > v or v == 0.0:
            # int (1-t)^m dt and int (1-t)^m (t-a) dt over (a, b]
            i_m = (wa ** (m + 1.0) - wb ** (m + 1.0)) / (m + 1.0)
            i_lin = wa * i_m - (wa ** (m + 2.0) - wb ** (m + 2.0)) / (m + 2.0)
            top = (wa**n - wb**n) / n  # exponent n-1 term
            total += top + float(np.dot(r, i_m) + np.dot(survives.astype(float), i_lin))
        r += survives * (b - a)
    return total


def _win_density(u, v, n):
    """((1-t+tv)^n - t v^n) / (t (1-t)) as a function of u = 1-t, vectorized.

    The numerator vanishes at u = 0; the cancellation-free form below keeps
    full precision there (the limit is n v^(n-1) (1-v) + v^n).
    """
    if v == 0.0:
        return u ** (n - 1) / (1.0 - u)
    ratio = (1.0 - v) / v
    return v**n * (np.expm1(n * np.log1p(u * ratio)) + u) / ((1.0 - u) * u)


def _win_density_times_t(u, v, n):
    """t * w_v(t) with the 1/t factor cancelled analytically (u = 1-t)."""
    if v == 0.0:
        return u ** (n - 1)
    ratio = (1.0 - v) / v
    return v**n * (np.expm1(n * np.log1p(u * ratio)) + u) / u


def win_probability(theta, n):
    """Win probability of the scan with a correct prior and threshold theta.

    Gamma_n(theta) = int_0^1 ( int_s^1 ((1-t+t theta(s))^n - t theta(s)^n)
                               / (t (1-t)) dt  -  theta(s)^n ) ds.

    The s-integral is an exact sum over the threshold pieces; each piece
    (a, b] with level v contributes

        int_a^b w_v(t) (t - a) dt + (b - a) int_b^1 w_v(t) dt - v^n (b - a)

    after swapping the integration order on the triangle s < t.
    """
    if int(n) != n or n < 1:
        raise ValueError("need integer n >= 1")
    n = int(n)
    pieces = list(theta.pieces())
    piece_tol = TOL / (2.0 * len(pieces))
    total = 0.0
    for a, b, v in pieces:
        if a == 0.0:

            def f1(t, v=v):
                return _win_density_times_t(1.0 - t, v, n)

        else:

            def f1(t, a=a, v=v):
                return _win_density(1.0 - t, v, n) * (t - a)

        part = gauss_refine(f1, a, b, piece_tol)
        if b < 1.0:
            part += (b - a) * gauss_refine(lambda t, v=v: _win_density(1.0 - t, v, n), b, 1.0, piece_tol)
        total += part - v**n * (b - a)
    return total


def _t_pieces(theta, z):
    """Sub-intervals of [z, 1] delimited by the threshold breakpoints.

    Yields (lo, hi, index of the theta piece containing the sub-interval).
    """
    out = []
    for idx, (a, b, _) in enumerate(theta.pieces()):
        lo = max(a, z)
        if lo >= b:
            continue
        out.append((lo, b, idx))
    return out


def maxexp_tail_prob(theta, n, y):
    """P[accepted value >= level] for the scan with threshold theta**(1/n).

    y is the n-th power of the level's cdf.  Evaluates the triple integral

        int_y^1 int_{theta^{-1}(q)}^1 int_0^t (1/t)
            (1 - t + t min{theta(s), q}^(1/n))^(n-1) q^(-(n-1)/n) ds dt dq

    with the substitution q = r^n (which removes the q-power singularity);
    the s-integral is an exact sum over the threshold pieces.
    """
    if int(n) != n or n < 1:
        raise ValueError("need integer n >= 1")
    n = int(n)
    y = float(y)
    if not (0.0 <= y <= 1.0):
        raise ValueError("y must lie in [0, 1]")
    if y == 1.0:
        return 0.0
    pieces = list(theta.pieces())
    starts = np.array([p[0] for p in pieces])
    lens = np.array([p[1] - p[0] for p in pieces])
    roots = np.array([p[2] for p in pieces]) ** (1.0 / n)
    r0 = y ** (1.0 / n)
    t_tol = TOL * 1e-2

    def j_of_r(r):
        z = theta.generalized_inverse(r**n)
        if z >= 1.0:
            return 0.0
        w = np.minimum(roots, r)
        total = 0.0
        for lo, hi, p in _t_pieces(theta, z):

            def f(t, p=p):
                base = 1.0 - t[:, None] * (1.0 - w[None, : p + 1])
                bpow = base ** (n - 1)
                full = bpow[:, :p] @ lens[:p] if p else 0.0
                return (full + (t - starts[p]) * bpow[:, p]) / t

            total += gauss_refine(f, lo, hi, t_tol)
        return total

    kinks = sorted({float(r) for r in roots if r0 < r < 1.0} | {r0, 1.0})
    total = 0.0
    for a, b in zip(kinks[:-1], kinks[1:]):
        total += adaptive_simpson(j_of_r, a, b, TOL)
    return n * total


def consistency_density(theta, q):
    """Limit consistency density g(q) for the expectation objective.

    g(q) = int_{theta^{-1}(q)}^1 int_0^t (1/t) min{theta(s), q}^t / q ds dt,
    defined for q in (0, 1]; the s-integral is exact over the step pieces.
    """
    q = float(q)
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    z = theta.generalized_inverse(q)
    if z >= 1.0:
        return 0.0
    pieces = list(theta.pieces())
    starts = np.array([p[0] for p in pieces])
    lens = np.array([p[1] - p[0] for p in pieces])
    caps = np.minimum(np.array([p[2] for p in pieces]), q)
    t_tol = TOL / 4.0
    total = 0.0
    for lo, hi, p in _t_pieces(theta, z):

        def f(t, p=p):
            with np.errstate(divide="ignore"):
                logs = np.where(caps[: p + 1] > 0.0, np.log(np.maximum(caps[: p + 1], 1e-300)), -np.inf)
            powers = np.exp(t[:, None] * logs[None, :])
            full = powers[:, :p] @ lens[:p] if p else 0.0
            return (full + (t - starts[p]) * powers[:, p]) / (t * q)

        total += gauss_refine(f, lo, hi, t_tol)
    return total


def consistency_integral(theta, z):
    """L(z) = int_z^1 int_0^t (1/t) theta(max{s, z})^t ds dt for a step theta.

    Exchanging the integration order gives

        L(z) = z int_z^1 theta(z)^t / t dt
             + sum over pieces (a, b] with level v inside (z, 1] of
               [ int_a^b (t - a) v^t / t dt + (b - a) int_b^1 v^t / t dt ]

    where the piece integrals reduce to pow_integral and log_time_integral.
    """
    z = float(z)
    if not (0.0 <= z <= 1.0):
        raise ValueError("z must lie in [0, 1]")
    total = 0.0
    if z < 1.0:
        v0 = theta.eval(z)
        if z > 0.0 and v0 > 0.0:
            total += z * log_time_integral(v0, z, 1.0)
        for a, b, v in theta.pieces():
            lo = max(a, z)
            if lo >= b or v == 0.0:
                continue
            total += pow_integral(v, lo, b) - lo * log_time_integral(v, lo, b)
            if b < 1.0:
                total += (b - lo) * log_time_integral(v, b, 1.0)
    return total


class _LTable:
    """Per-piece caches so that L(z) costs two closed-form integrals per query."""

    def __init__(self, theta):
        self.theta = theta
        self.breaks = theta.breakpoints
        self.vals = theta.values
        tails = []  # A_i + len_i * B_i per piece, and B_i itself
        self.b_tail = []
        for a, b, v in theta.pieces():
            if v == 0.0:
                tails.append(0.0)
                self.b_tail.append(0.0)
                continue
            b_i = log_time_integral(v, b, 1.0) if b < 1.0 else 0.0
            a_i = pow_integral(v, a, b)
            if a > 0.0:
                a_i -= a * log_time_integral(v, a, b)
            tails.append(a_i + (b - a) * b_i)
            self.b_tail.append(b_i)
        suffix = np.concatenate([np.cumsum(tails[::-1])[::-1], [0.0]])
        self.suffix = suffix

    def value(self, z):
        z = float(z)
        if z >= 1.0:
            return 0.0
        p = int(np.searchsorted(self.breaks, z, side="left"))
        v_z = self.vals[p]
        total = self.suffix[p + 1]
        if z > 0.0 and v_z > 0.0:
            total += z * log_time_integral(v_z, z, 1.0)
        b_p = self.breaks[p]
        v_p = self.vals[p]
        if z < b_p and v_p > 0.0:
            part = pow_integral(v_p, z, b_p)
            if z > 0.0:
                part -= z * log_time_integral(v_p, z, b_p)
            total += part + (b_p - z) * self.b_tail[p]
        return total


def check_consistency_conditions(theta, alpha, pair, grid=1000):
    """Worst slack of the consistency conditions over a z-grid.

    Returns min over z in [lambda1, lambda2] of L(z) - alpha * theta(z),
    with L(z) = consistency_integral(theta, z); a non-negative result
    verifies the sufficient conditions at level alpha for the robustified
    threshold.
    """
    table = _LTable(theta)
    zs = np.linspace(pair.lambda1, pair.lambda2, grid)
    worst = math.inf
    for z in zs:
        slack = table.value(z) - alpha * theta.eval(z)
        worst = min(worst, slack)
    return worst
