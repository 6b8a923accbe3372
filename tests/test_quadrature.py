import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stoppred.quadrature import log_time_integral, pow_integral


def _mp_log_time_integral(v, a, b):
    """int_a^b v**t / t dt by mpmath quadrature at 30 digits.

    With t = e^w the integrand is exp(e^w ln v) dw: flat on the far left and
    turning at e^w |ln v| = 1, where the interval is split.
    """
    with mpmath.workdps(30):
        logv = mpmath.log(v)
        lo, hi = mpmath.log(a), mpmath.log(b)
        points = [lo, hi]
        if logv != 0 and lo < -mpmath.log(abs(logv)) < hi:
            points.insert(1, -mpmath.log(abs(logv)))
        return float(mpmath.quad(lambda w: mpmath.exp(mpmath.exp(w) * logv), points))


def test_pow_integral_closed_form():
    assert pow_integral(1.0, 0.2, 0.9) == pytest.approx(0.7)
    assert pow_integral(0.0, 0.2, 0.9) == 0.0
    v, a, b = 0.37, 0.1, 0.8
    expect = (v**b - v**a) / math.log(v)
    assert pow_integral(v, a, b) == pytest.approx(expect, rel=1e-14)


def test_log_time_integral_matches_reference():
    for v in (0.05, 0.4, 0.99, 1.3):
        ref = _mp_log_time_integral(v, 0.01, 1.0)
        assert log_time_integral(v, 0.01, 1.0) == pytest.approx(ref, abs=1e-9)
    assert log_time_integral(1.0, 0.25, 1.0) == pytest.approx(math.log(4.0), rel=1e-12)
    assert log_time_integral(0.0, 0.25, 1.0) == 0.0


def test_log_time_integral_validates():
    with pytest.raises(ValueError):
        log_time_integral(0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        log_time_integral(-0.5, 0.1, 1.0)


# v over (0, 2] plus the two ends the maxexp solver reaches: step values
# floored near exp(-700) and values within rounding of 1
LTI_V = st.one_of(
    st.floats(0.0, 2.0, exclude_min=True),
    st.floats(690.0, 745.0).map(lambda u: math.exp(-u)),
    st.floats(-1e-6, 1e-6).map(lambda d: 1.0 + d),
)
# a >= 1e-290 keeps a * |ln v| a normal double for every v != 1 above
LTI_T = st.floats(1e-290, 1.0)


@settings(max_examples=300, deadline=None)
@given(LTI_V, LTI_T, LTI_T)
def test_log_time_integral_closed_form_matches_quadrature(v, a, b):
    a, b = min(a, b), max(a, b)
    assume(a < b)
    ref = _mp_log_time_integral(v, a, b)
    assert abs(log_time_integral(v, a, b) - ref) <= 1e-11


EPS = 2.0**-52


@settings(max_examples=300, deadline=None)
@given(st.floats(math.log(2.0), 40.0, exclude_min=True).map(math.exp), LTI_T, LTI_T)
def test_log_time_integral_above_two_matches_ei(v, a, b):
    # LTI_V stops at v = 2, where the series' argument b ln v stays below
    # ln 2; here it reaches 40, well into the loop above 2.5.  Rounding
    # b ln v and b / a moves the result by up to b / (b - a) of their eps,
    # and an error in the series' argument grows as 1 + b ln v.
    a, b = min(a, b), max(a, b)
    assume(b >= 1.01 * a)
    with mpmath.workdps(50):
        logv = mpmath.log(v)
        ref = mpmath.ei(b * logv) - mpmath.ei(a * logv)
        err = float(abs(mpmath.mpf(log_time_integral(v, a, b)) - ref) / ref)
    assert err <= 4.0 * (1.0 + b * math.log(v)) * b / (b - a) * EPS, (v, a, b)


def test_numpy_scalars_give_python_floats():
    for v in (0.5, 3.0, 30.0):
        value = log_time_integral(np.float64(v), np.float64(0.25), np.float64(0.75))
        assert type(value) is float and value == log_time_integral(v, 0.25, 0.75)
