"""Closed-form evaluators for the performance formulas.

Everything here is a pure function of a threshold function (a step map) and
a handful of scalars.  Step thresholds make every integral an exact finite
sum.  Over the time of the prefix maximum the sum runs over the pieces.
Over the arrival time the integrands are polynomials in t, some divided by
t (win_probability), or v**t and v**t / t, whose integrals have closed forms
(quadrature.pow_integral and the exponential integral of
quadrature.log_time_integral).  maxprob_alpha's double integral is a closed
form in E1 as well.  The expectation objective's consistency integral
L(z) has one evaluator, _LTable, which sums the same per-piece term
(quadrature._piece_tail) as the maxexp recursion.

These evaluators serve double duty: they generate the trade-off curves, and
they act as oracles against the Monte Carlo engine (and vice versa).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ._roots import brentq
from .priors import _count, lambda_pair
from .quadrature import _e1, _piece_tail, _series, pow_integral

__all__ = [
    "c_series",
    "solve_constant_c",
    "maxprob_alpha",
    "googol_win_formula",
    "win_probability",
    "check_consistency_conditions",
]

_CHUNK = 256  # powers of k that win_probability sums per pass


def c_series(c):
    """sum_{k>=1} c**k / (k! k) for c in [0, 1].

    This is the series S(c) of the exponential integrals, which
    quadrature._series sums to 18 terms, exact to rounding for |c| <= 1.
    """
    return _series(c)


@lru_cache(maxsize=1)
def solve_constant_c():
    """Root of c_series(c) = 1 on (0, 1), about 0.80435, by Brent's method."""
    return brentq(lambda c: c_series(c) - 1.0, 0.0, 1.0, xtol=1e-15, rtol=1e-15)


def _maxprob_antiderivative(s, c):
    """G(s) with G'(s) = E1(c s/(1-s)) - E1(c/(1-s)) and G(1) = 0.

    G(s) = s E1(c s/(1-s)) - (1-s) e^(-c/(1-s)) + (c + 1 - s - e^c) E1(c/(1-s)),
    where s E1(c s/(1-s)) is 0 at s = 0 (it vanishes like s ln s).
    """
    if s >= 1.0:
        return 0.0
    kappa = c / (1.0 - s)
    head = s * _e1(kappa * s) if s > 0.0 else 0.0
    return head - (1.0 - s) * math.exp(-kappa) + (c + 1.0 - s - math.exp(c)) * _e1(kappa)


def maxprob_alpha(beta):
    """Best achievable win probability at robustness level beta.

    alpha(beta) = beta + int_{lambda1}^{lambda2} int_s^1 exp(-c t/(1-s)) / t dt ds

    with (lambda1, lambda2) the roots for beta and c the series constant.
    The inner integral is E1(kappa s) - E1(kappa) with kappa = c/(1-s)
    (Abramowitz & Stegun 5.1.1), and the outer one has a closed form too
    (_maxprob_antiderivative), so alpha = beta + G(lambda2) - G(lambda1):
    four exponential integrals.
    """
    pair = lambda_pair(beta)
    if pair.lambda1 == pair.lambda2:  # the roots coincide at the peak, so the band is empty
        return pair.beta
    c = solve_constant_c()
    return pair.beta + _maxprob_antiderivative(pair.lambda2, c) - _maxprob_antiderivative(pair.lambda1, c)


def googol_win_formula(qvals, theta):
    """Win probability with fixed values and random arrivals, evaluated exactly.

    qvals are the predicted-prior cdf levels of the realized values, sorted
    ascending; the last entry is the maximum's level.  The probability is

        int_0^1 1{q_n > theta(t)} ((1-t)^(n-1)
            + sum_i (1-t)^(n-1-i) int_0^t 1{q_i <= theta(s)} ds) dt,

    which is piecewise polynomial for a step threshold, so all integrals
    below are closed-form.
    """
    q = np.asarray(qvals, dtype=float)
    if q.ndim != 1 or len(q) == 0:
        raise ValueError("qvals must be a non-empty 1-d array")
    # written so that a NaN fails each check
    if not np.all(np.diff(q) >= 0.0):
        raise ValueError("qvals must be sorted ascending")
    if not np.all((q >= 0.0) & (q <= 1.0)):
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


def win_probability(theta, n):
    """Win probability of the scan with a correct prior and threshold theta.

    Gamma_n(theta) = int_0^1 ( int_s^1 w_v(t) dt - v^n ) ds,  v = theta(s),
    w_v(t) = ((1-t+tv)^n - t v^n) / (t (1-t)).

    Swapping the integration order on the triangle s < t, each piece (a, b]
    at level v contributes

        int_a^b w_v(t) (t - a) dt + (b - a) int_b^1 w_v(t) dt - v^n (b - a).

    For integer n these are finite sums.  With r = 1-v, x = 1-tr and
    A = x^n, w_v = A/t + D with D = (A - v^n)/(1-t) = r sum_{j<n} x^j v^(n-1-j),
    and t w_v = D + v^n, so the piece contributes

        (1-a) int_a^b D - a I(a, b) + (b - a) (I(b, 1) + int_b^1 D),
        I(a, b) = int_a^b A/t dt = ln(b/a) + sum_{k=1}^n (x_b^k - x_a^k)/k,
        int_a^b D = sum_{k=1}^n v^(n-k) (x_a^k - x_b^k)/k,

    with x_t = 1 - t r; the a I(a, b) term is absent for a = 0.  The sums
    run over every piece at once, in chunks of _CHUNK powers of k, so memory
    is O(pieces) and time O(n pieces): on the 98-piece robustified GM rule,
    0.1 ms at n = 10, 8 ms at n = 10^4 and 0.65 s at n = 10^6 (one core of
    an Intel Xeon).
    """
    n = _count(n, "n")
    b = theta.breakpoints
    a = np.concatenate([[0.0], b[:-1]])
    v = theta.values
    # x_t at t = a, b and 1, one row per piece
    x = 1.0 - np.stack([a, b, np.ones_like(b)], axis=1) * (1.0 - v)[:, None]
    # p = sum_k x^k / k and q = sum_k v^(n-k) x^k / k over k = k0 + j, with
    # x^(k0+j) = x^k0 x^j and v^(n-k0-j) taken from the fixed tables below
    j = np.arange(min(_CHUNK, n), dtype=float)
    x_pow = x[:, :, None] ** j
    v_pow = v[:, None] ** j[::-1]
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for k0 in range(1, n + 1, len(j)):
        size = min(len(j), n + 1 - k0)
        inv_k = 1.0 / np.arange(k0, k0 + size)
        x_j = x_pow[:, :, :size]
        x_k0 = x**k0
        p += x_k0 * (x_j @ inv_k)
        v_nk = v_pow[:, len(j) - size :] * (v ** (n + 1 - k0 - size))[:, None]
        q += x_k0 * (x_j @ (v_nk * inv_k)[:, :, None])[:, :, 0]
    d_piece, d_tail = q[:, 0] - q[:, 1], q[:, 1] - q[:, 2]  # int D over (a, b] and (b, 1]
    log_b = np.log(b)
    i_tail = p[:, 2] - p[:, 1] - log_b  # I(b, 1)
    total = (1.0 - a) * d_piece + (b - a) * (i_tail + d_tail)
    # a > 0 on every piece but the first, where a is the previous b
    total[1:] -= a[1:] * (log_b[1:] - log_b[:-1] + p[1:, 1] - p[1:, 0])
    return float(total.sum())


class _LTable:
    """L(z) = int_z^1 int_0^t (1/t) theta(max{s, z})^t ds dt for a step theta.

    Exchanging the integration order gives

        L(z) = z int_z^1 theta(z)^t / t dt
             + sum over pieces (a, b] with level v inside (z, 1] of
               [ int_a^b (t - a) v^t / t dt + (b - a) int_b^1 v^t / t dt ],

    where the piece holding z counts from z on.  The bracket of each whole
    piece is quadrature._piece_tail, cached with its suffix sums.  For z in
    the piece (a, b] at level v the z-terms collapse, as
    z int_z^1 - z int_z^b = z int_b^1 of v^t / t dt, to

        L(z) = (suffix past the piece) + int_z^b v^t dt + b int_b^1 v^t / t dt,

    so that a query costs one closed-form integral.
    """

    def __init__(self, theta):
        self.breaks = theta.breakpoints
        self.vals = theta.values
        tails, self.b_tail = zip(*(_piece_tail(v, a, b) for a, b, v in theta.pieces()))
        self.suffix = np.concatenate([np.cumsum(tails[::-1])[::-1], [0.0]])

    def value(self, z):
        z = float(z)
        if z >= 1.0:
            return 0.0
        p = int(np.searchsorted(self.breaks, z, side="left"))
        b = self.breaks[p]
        return self.suffix[p + 1] + pow_integral(self.vals[p], z, b) + b * self.b_tail[p]


def check_consistency_conditions(theta, alpha, pair):
    """Worst slack of the consistency conditions, exactly.

    Returns min over z in [lambda1, lambda2] of L(z) - alpha * theta(z),
    with L(z) the consistency integral of _LTable; a non-negative result
    verifies the sufficient conditions at level alpha for the robustified
    threshold.  L does not increase in z, as theta does not, and theta is
    constant on each piece (a, b], so on a piece the least slack is at its
    right end within the band: the minimum runs over z = min(b, lambda2)
    for the pieces with b >= lambda1 and a < lambda2.
    """
    table = _LTable(theta)
    return min(
        table.value(min(b, pair.lambda2)) - alpha * v
        for a, b, v in theta.pieces()
        if b >= pair.lambda1 and a < pair.lambda2
    )
