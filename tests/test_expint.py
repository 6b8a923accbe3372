"""E1 and Ei of stoppred.quadrature against mpmath, with scipy.special's own error as the bar."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import exp1, expi

from stoppred.quadrature import _X0_HI, _X0_LO, _e1 as e1, _ei as ei

EPS = 2.0**-52
TINY = 5e-324  # the smallest subnormal
CASES = [(e1, exp1, mpmath.e1), (ei, expi, mpmath.ei)]


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


@settings(max_examples=400, deadline=None)
@given(_arguments(709.0))
@example(1.0)
@example(709.0)
@example(_X0_HI)
def test_ei_matches_mpmath(x):
    _assert_as_good_as_scipy(ei, expi, mpmath.ei, x)


@pytest.mark.parametrize("ours, theirs, exact", CASES)
def test_both_sides_of_every_break(ours, theirs, exact):
    for brk in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 709.0):
        for x in (np.nextafter(brk, 0.0), brk, np.nextafter(brk, np.inf)):
            _assert_as_good_as_scipy(ours, theirs, exact, float(x))


def test_zero_and_invalid_arguments():
    assert e1(0.0) == math.inf
    assert ei(0.0) == -math.inf
    assert math.isnan(e1(math.nan)) and math.isnan(ei(math.nan))
    for f in (e1, ei):
        with pytest.raises(ValueError, match="needs x >= 0"):
            f(-1e-300)


def test_numpy_scalars_give_python_floats():
    assert type(e1(np.float64(2.5))) is float and e1(np.float64(2.5)) == e1(2.5)
    assert type(ei(np.float32(0.75))) is float and ei(np.float32(0.75)) == ei(float(np.float32(0.75)))


def test_e1_underflow():
    # E1(x) ~ e^-x / x leaves the normal range near x = 701.8 and rounds to 0 past 738.5
    for x in (701.0, 705.0, 720.0, 735.0, 738.0):
        _assert_as_good_as_scipy(e1, exp1, mpmath.e1, x)
    assert e1(738.0) > 0.0
    for x in (739.0, 745.0, 1e6, math.inf):
        assert e1(x) == 0.0


def test_ei_overflow():
    # e^x overflows past 709.78, Ei itself only past 716.36
    for x in (709.5, 712.0, 716.3):
        ref = _reference(mpmath.ei, x)
        assert _error(ei(x), ref) <= 4.0 * EPS * float(ref)
    for x in (716.4, 717.5, 1e6, math.inf):
        assert ei(x) == math.inf


def test_ei_zero_keeps_relative_accuracy():
    with mpmath.workdps(40):
        x0 = mpmath.findroot(mpmath.ei, mpmath.mpf("0.3725"))
        assert abs(mpmath.mpf(_X0_HI) + mpmath.mpf(_X0_LO) - x0) <= mpmath.mpf(10) ** -32
    # within a few ulps of the zero scipy's relative error reaches 1; ours stays at rounding
    x = _X0_HI
    for _ in range(5):
        x = float(np.nextafter(x, 0.0))
    for _ in range(11):
        ref = _reference(mpmath.ei, x)
        assert _error(ei(x), ref) <= 4.0 * EPS * float(abs(ref)), x
        x = float(np.nextafter(x, 1.0))
    assert ei(_X0_HI) < 0.0 < ei(float(np.nextafter(_X0_HI, 1.0)))
