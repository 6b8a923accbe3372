"""E1 and the positive series S of stoppred.quadrature against mpmath.

E1 has scipy.special's own error as the bar.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import exp1

from stoppred.quadrature import _e1 as e1, _positive_series

EPS = 2.0**-52
TINY = 5e-324  # the smallest subnormal


def _reference(f, x):
    with mpmath.workdps(30):
        return f(mpmath.mpf(x))


def _error(value, ref):
    with mpmath.workdps(30):
        return float(abs(mpmath.mpf(value) - ref))


def _assert_as_good_as_scipy(ours, theirs, exact, x):
    """ours(x) is within max(scipy's error, 4 eps relative, 4 subnormal ulps) of the exact value."""
    ref = _reference(exact, x)
    value = ours(x)
    assert type(value) is float
    bar = max(_error(theirs(x), ref), 4.0 * EPS * float(abs(ref)), 4.0 * TINY)
    assert _error(value, ref) <= bar, (x, value, float(ref))


# log-uniform and uniform draws, so that both the tiny arguments and each
# polynomial piece get their share
def _arguments(hi):
    return st.one_of(
        st.floats(math.log(1e-300), math.log(hi)).map(math.exp).filter(lambda x: 1e-300 <= x <= hi),
        st.floats(1e-300, hi),
    )


@settings(max_examples=400, deadline=None)
@given(_arguments(745.0))
@example(1.0)
@example(745.0)
def test_e1_matches_mpmath(x):
    _assert_as_good_as_scipy(e1, exp1, mpmath.e1, x)


@pytest.mark.parametrize("ours, theirs, exact", [(e1, exp1, mpmath.e1)])
def test_both_sides_of_every_break(ours, theirs, exact):
    for brk in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 709.0):
        for x in (np.nextafter(brk, 0.0), brk, np.nextafter(brk, np.inf)):
            _assert_as_good_as_scipy(ours, theirs, exact, float(x))


def test_zero_and_invalid_arguments():
    assert e1(0.0) == math.inf
    assert math.isnan(e1(math.nan))
    with pytest.raises(ValueError, match="needs x >= 0"):
        e1(-1e-300)


def test_numpy_scalars_give_python_floats():
    assert type(e1(np.float64(2.5))) is float and e1(np.float64(2.5)) == e1(2.5)


def test_e1_underflow():
    # E1(x) ~ e^-x / x leaves the normal range near x = 701.8 and rounds to 0 past 738.5
    for x in (701.0, 705.0, 720.0, 735.0, 738.0):
        _assert_as_good_as_scipy(e1, exp1, mpmath.e1, x)
    assert e1(738.0) > 0.0
    for x in (739.0, 745.0, 1e6, math.inf):
        assert e1(x) == 0.0


def _series_reference(y):
    """S(y) = y 2F2(1, 1; 2, 2; y) at 40 digits.

    Not Ei(y) - gamma - ln y: that form cancels, and at 30 digits it loses
    every digit of S below about y = 1e-14.
    """
    with mpmath.workdps(40):
        y = mpmath.mpf(y)
        return y * mpmath.hyp2f2(1, 1, 2, 2, y)


# the ends, and both sides of the range breaks at 1 and 2.5
@settings(max_examples=400, deadline=None)
@given(_arguments(716.0))
@example(5e-324)
@example(1e-35)
@example(float(np.nextafter(1.0, 0.0)))
@example(1.0)
@example(float(np.nextafter(1.0, 2.0)))
@example(float(np.nextafter(2.5, 0.0)))
@example(2.5)
@example(float(np.nextafter(2.5, 3.0)))
@example(716.0)
def test_positive_series_matches_mpmath(y):
    # above 2.5 the terms come by a recursion whose rounding grows with y
    value = _positive_series(y)
    assert type(value) is float
    ref = _series_reference(y)
    assert _error(value, ref) <= max(8.0, y / 4.0) * EPS * float(ref), (y, value, float(ref))


def test_positive_series_overflow_and_nan():
    # S(y) ~ e^y / y overflows past 716.36
    for y in (716.4, 717.0, 720.0, 1e6, math.inf):
        assert _positive_series(y) == math.inf
    assert math.isnan(_positive_series(math.nan))
    assert _positive_series(0.0) == 0.0
    assert type(_positive_series(np.float64(3.0))) is float
    assert _positive_series(np.float32(0.75)) == _positive_series(float(np.float32(0.75)))
