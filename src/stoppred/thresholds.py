"""Step threshold functions.

A threshold function maps time in [0, 1] to an acceptance level.  Every
threshold in this package is a left-continuous, non-increasing step function:
piece i covers the half-open interval (b[i-1], b[i]] and theta(0) equals the
first value.  Levels above 1 are tolerated because the consistency solver
produces them as intermediate output; robustification clamps them.

Besides the representation, this module constructs the classical thresholds
(the 1/e rule, the constant single-threshold rule, and the full-information
best-choice rule, whose first-order condition reduces to one polynomial root
per n) and the robustified variant that pins the function to 1 before
lambda1 and 0 from lambda2 on.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .priors import lambda_pair

__all__ = [
    "ThresholdFn",
    "robustify",
    "dynkin_threshold",
    "single_threshold",
    "gm_threshold",
    "gm_threshold_value",
    "gm_asymptotic",
    "threshold_to_csv",
    "threshold_from_csv",
]

_MONO_TOL = 1e-12


class ThresholdFn:
    """Left-continuous non-increasing step function on [0, 1]."""

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints, values):
        bp = np.asarray(breakpoints, dtype=float)
        vals = np.asarray(values, dtype=float)
        if bp.shape != vals.shape or bp.ndim != 1 or len(bp) == 0:
            raise ValueError("breakpoints and values must be 1-d arrays of equal length")
        # every check is written so that a NaN fails it
        if not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if bp[-1] != 1.0:
            raise ValueError("last breakpoint must be 1")
        if not bp[0] > 0.0:
            raise ValueError("breakpoints must be positive")
        if np.any(np.diff(vals) > _MONO_TOL):
            raise ValueError("values must be non-increasing")
        if not np.all(vals >= 0.0):
            raise ValueError("values must be non-negative")
        self.breakpoints = bp
        self.values = vals

    def __repr__(self):
        return f"ThresholdFn({len(self.values)} pieces)"

    def __eq__(self, other):
        return (
            isinstance(other, ThresholdFn)
            and np.array_equal(self.breakpoints, other.breakpoints)
            and np.array_equal(self.values, other.values)
        )

    def eval(self, t):
        """Left-continuous evaluation; vectorized over t."""
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        idx = np.searchsorted(self.breakpoints, arr, side="left")
        idx = np.minimum(idx, len(self.values) - 1)
        out = self.values[idx]
        return float(out) if scalar else out

    __call__ = eval

    def generalized_inverse(self, x):
        """inf{t : theta(t) < x}, or 1 if theta never drops below x."""
        x = float(x)
        below = np.flatnonzero(self.values < x)
        if len(below) == 0:
            return 1.0
        i = below[0]
        return 0.0 if i == 0 else float(self.breakpoints[i - 1])

    def pieces(self):
        """Iterate (a, b, value) with the piece covering (a, b]."""
        a = 0.0
        for b, v in zip(self.breakpoints, self.values):
            yield a, float(b), float(v)
            a = float(b)

    def powered(self, exponent):
        """Pointwise power of the levels, e.g. theta ** (1/n)."""
        if exponent <= 0:
            raise ValueError("exponent must be positive")
        return ThresholdFn(self.breakpoints, self.values**exponent)

    def clamped(self):
        """Levels clipped into [0, 1]."""
        return ThresholdFn(self.breakpoints, np.minimum(self.values, 1.0))


def _simplify(breaks, vals):
    # merge adjacent pieces with equal values; keeps evaluation identical
    out_b, out_v = [], []
    for b, v in zip(breaks, vals):
        if out_v and v == out_v[-1]:
            out_b[-1] = b
        else:
            out_b.append(b)
            out_v.append(v)
    return out_b, out_v


def dynkin_threshold(lam):
    """1 on [0, lam], 0 on (lam, 1]: wait, then take the first best-so-far value."""
    lam = float(lam)
    if not (0.0 <= lam <= 1.0):
        raise ValueError("lam must lie in [0, 1]")
    if lam == 0.0:
        return ThresholdFn([1.0], [0.0])
    if lam == 1.0:
        return ThresholdFn([1.0], [1.0])
    return ThresholdFn([lam, 1.0], [1.0, 0.0])


def single_threshold(n):
    """Constant level 1 - 1/n."""
    if int(n) != n or n < 1:
        raise ValueError("need integer n >= 1")
    return ThresholdFn([1.0], [1.0 - 1.0 / n])


def robustify(theta, pair):
    """Force the level to 1 up to lambda1 and to 0 beyond lambda2.

    In between, the input levels are kept (clamped to at most 1).  With
    lambda1 = lambda2 the middle band is empty and the result is the
    classical wait-then-accept rule at that point.
    """
    if isinstance(pair, (int, float)):
        pair = lambda_pair(pair)
    lam1, lam2 = pair.lambda1, pair.lambda2
    breaks, vals = [], []
    if lam1 > 0.0:
        breaks.append(lam1)
        vals.append(1.0)
    if lam2 > lam1:
        for a, b, v in theta.pieces():
            if b <= lam1 or a >= lam2:
                continue
            breaks.append(min(b, lam2))
            vals.append(min(v, 1.0))
    if lam2 < 1.0:
        breaks.append(1.0)
        vals.append(0.0)
    if not breaks or breaks[-1] != 1.0:
        # lam2 == 1: extend the final kept piece to the right endpoint
        if breaks:
            breaks[-1] = 1.0
        else:
            breaks, vals = [1.0], [min(theta.eval(1.0), 1.0)]
    breaks, vals = _simplify(breaks, vals)
    return ThresholdFn(breaks, vals)


def _gm_series(c, n):
    """sum_{k=1}^{n-1} C(n-1, k) (c/(n-1))**k / k by the ratio recurrence of the terms.

    C(n-1, k) itself overflows past n of about 1030.  For c <= 1 the terms
    never increase, so the sum stops once they fall below rounding.
    """
    y = c / (n - 1)
    total = 0.0
    term = 1.0
    for k in range(1, n):
        term *= y * (n - k) / k
        total += term / k
        if term <= 1e-17 * total:
            break
    return total


@lru_cache(maxsize=1024)
def _gm_root(n):
    """c_n = (n-1) y_n, with y_n the root of sum_{k=1}^{n-1} C(n-1, k) y**k / k = 1.

    The series is at least (n-1) y, so c_n lies in (0, 1]; c_2 = 1, and c_n
    tends to the series constant c of about 0.80435 as n grows.
    """
    return brentq(lambda c: _gm_series(c, n) - 1.0, 0.0, 1.0, xtol=1e-15, rtol=1e-15)


def _gm_levels(n, s):
    # the large-n form of gm_asymptotic, exact with c_n in place of c
    return 1.0 / (1.0 + _gm_root(int(n)) / ((n - 1) * (1.0 - s)))


def gm_threshold_value(n, s):
    """Best-choice threshold level at time s for n values.

    With x = 1/theta - 1, the first-order condition
    int_0^{1-s} ((1 + x u)**(n-1) - 1) / u du = 1 expands to
    sum_{k=1}^{n-1} C(n-1, k) (x (1-s))**k / k = 1 (Gilbert & Mosteller
    1966), so x (1-s) is the same root y_n at every s and the level is
    1 / (1 + y_n / (1-s)), solved once per n.  The level at s = 1 is 0 by
    the boundary condition.
    """
    if int(n) != n or n < 2:
        raise ValueError("need integer n >= 2")
    s = float(s)
    if not (0.0 <= s <= 1.0):
        raise ValueError("s must lie in [0, 1]")
    if s == 1.0:
        return 0.0
    return float(_gm_levels(n, s))


def gm_threshold(n, m):
    """Step sampling of the best-choice threshold on a uniform m-piece grid.

    Piece ((i-1)/m, i/m] takes the level at its left endpoint, so the step
    function upper-bounds the exact threshold and stays strictly positive on
    all of [0, 1]; the exact level reaches 0 only at the single point s = 1.
    """
    if int(n) != n or n < 2:
        raise ValueError("need integer n >= 2")
    if int(m) != m or m < 2:
        raise ValueError("need integer m >= 2")
    vals = _gm_levels(n, np.arange(m) / m)
    breaks = np.arange(1, m + 1) / m
    breaks[-1] = 1.0
    return ThresholdFn(breaks, vals)


def gm_asymptotic(s, n, c):
    """Large-n approximation 1 / (1 + c / ((n-1)(1-s))) of the best-choice level."""
    if int(n) != n or n < 2:
        raise ValueError("need integer n >= 2")
    s = float(s)
    if not (0.0 <= s < 1.0):
        raise ValueError("s must lie in [0, 1)")
    return 1.0 / (1.0 + c / ((n - 1) * (1.0 - s)))


def threshold_to_csv(theta):
    """CSV dump, header ``t,theta``, one row per piece right endpoint."""
    lines = ["t,theta"]
    for b, v in zip(theta.breakpoints, theta.values):
        lines.append(f"{b:.17g},{v:.17g}")
    return "\n".join(lines) + "\n"


def threshold_from_csv(text):
    rows = [line.strip() for line in text.strip().splitlines() if line.strip()]
    rows = [r for r in rows if not r.startswith("#")]
    if not rows or rows[0] != "t,theta":
        raise ValueError("expected header 't,theta'")
    breaks, vals = [], []
    for row in rows[1:]:
        b, v = row.split(",")
        breaks.append(float(b))
        vals.append(float(v))
    return ThresholdFn(breaks, vals)
