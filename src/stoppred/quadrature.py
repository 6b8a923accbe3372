"""Closed forms of the two integrals of v**t that the evaluators need.

``pow_integral`` is int v**t dt and ``log_time_integral`` is int v**t / t dt,
an exponential integral evaluated by stoppred._expint.  Both return Python
floats.  ``_piece_tail`` combines them into the per-piece term of the
consistency integral L(z), which analytics._LTable and the maxexp
recursion both sum.
"""

from __future__ import annotations

import math

from ._expint import e1, ei

__all__ = ["log_time_integral", "pow_integral"]


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


def _piece_tail(v, a, b):
    """int_a^b (t - a) v**t / t dt + (b - a) int_b^1 v**t / t dt, and the last integral.

    This is the term that a piece (a, b] at level v adds to L(z) for every
    z <= a.  The a-term is absent for a = 0, where it vanishes.
    """
    rest = log_time_integral(v, b, 1.0)
    head = pow_integral(v, a, b)
    if a > 0.0:
        head -= a * log_time_integral(v, a, b)
    return head + (b - a) * rest, rest
