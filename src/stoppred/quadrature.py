"""Numerical integration helpers.

Two adaptive schemes for the integrals that have no closed form here.  Each
takes an absolute tolerance ``tol`` and returns an estimate meant to lie
within ``tol`` of the integral.  ``tol`` must be positive: zero or NaN
raises ValueError, since a zero tolerance would send adaptive_simpson to
its depth cap on every interval.

* ``adaptive_simpson``: classic local bisection with Richardson error
  estimate, for scalar integrands; robust near integrable endpoint
  singularities because the subdivision concentrates where needed.  Each
  half interval gets half the tolerance; past ``MAX_DEPTH`` halvings the
  local estimate is accepted as it stands.
* ``gauss_refine``: ``ORDER``-point Gauss-Legendre panels, doubling the
  panel count until two consecutive estimates agree to ``tol``; the
  integrand is called on node arrays, so this is the fast path for smooth
  integrands.  At 2**21 nodes it returns its last estimate.

Two integrals of v**t have closed forms and need neither: ``pow_integral``
(int v**t dt) and ``log_time_integral`` (int v**t / t dt, an exponential
integral, evaluated by stoppred._expint).  Both return Python floats.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ._expint import e1, ei

__all__ = ["adaptive_simpson", "gauss_refine", "log_time_integral", "pow_integral"]

MAX_DEPTH = 60  # adaptive_simpson's cap on interval halvings
ORDER = 16  # Gauss-Legendre nodes per panel in gauss_refine


def _check_tol(tol):
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f, a, b, tol):
    """Integrate a scalar function over [a, b] to absolute tolerance tol."""
    _check_tol(tol)
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson(fa, fm, fb, b - a)
    return _simpson_rec(f, a, b, fa, fm, fb, whole, tol, MAX_DEPTH)


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    err = left + right - whole
    if depth <= 0 or abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    return _simpson_rec(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + _simpson_rec(
        f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )


@lru_cache(maxsize=1)
def _leggauss():
    return np.polynomial.legendre.leggauss(ORDER)


def _gauss_panels(f, a, b, panels):
    nodes, weights = _leggauss()
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    vals = f(pts).reshape(panels, ORDER)
    return float(np.sum((vals @ weights) * half))


def gauss_refine(f, a, b, tol):
    """Panel-doubling Gauss quadrature to absolute tolerance tol; f maps node
    arrays to value arrays."""
    _check_tol(tol)
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0
    prev = _gauss_panels(f, a, b, 1)
    panels = 2
    while panels * ORDER <= 1 << 21:
        cur = _gauss_panels(f, a, b, panels)
        if abs(cur - prev) <= tol:
            return cur
        prev = cur
        panels *= 2
    return prev


def log_time_integral(v, a, b):
    """integral_a^b v**t / t dt for 0 <= v, 0 < a <= b, in closed form.

    With x = t |ln v| the integral is an exponential integral (Abramowitz &
    Stegun 5.1.1 and 5.1.2): E1(-a ln v) - E1(-b ln v) for 0 < v < 1 and
    Ei(b ln v) - Ei(a ln v) for v > 1.  v = 0 integrates to 0 (0**t = 0 for
    t > 0) and v = 1 reduces to ln(b/a).  The result is exact to rounding
    while a |ln v| is a normal double, which a >= 1e-290 ensures for every
    double v != 1.
    """
    if v < 0.0:
        raise ValueError("v must be non-negative")
    if not 0.0 < a <= b:
        raise ValueError("need 0 < a <= b")
    if a == b:
        return 0.0
    if v == 0.0:
        return 0.0
    if v == 1.0:
        return math.log(b / a)
    logv = math.log(v)
    if logv < 0.0:
        return e1(-a * logv) - e1(-b * logv)
    return ei(b * logv) - ei(a * logv)


def pow_integral(v, a, b):
    """integral_a^b v**t dt in closed form, with the 0**t = 0 convention."""
    if v < 0.0:
        raise ValueError("v must be non-negative")
    if v == 0.0:
        return 0.0
    if v == 1.0:
        return b - a
    logv = math.log(v)
    return float(v**a * math.expm1((b - a) * logv) / logv)
