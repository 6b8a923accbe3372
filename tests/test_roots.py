import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from stoppred import thresholds
from stoppred._roots import brentq

XTOLS = [1e-15, 2e-12, 1e-6]
RTOLS = [8.9e-16, 1e-15, 1e-10]


def _function(kind, root, scale, power):
    if kind == "power":  # odd powers: flat near the root, so Brent bisects often
        return lambda x: scale * (x - root) ** power
    if kind == "atan":
        return lambda x: math.atan(scale * (x - root))
    if kind == "exp":
        return lambda x: math.expm1(min(scale * (x - root), 700.0))
    if kind == "steps":  # plateaus: equal values force bisection steps
        return lambda x: math.floor(scale * (x - root)) + 0.5
    if kind == "tiny":  # products of divided differences underflow to 0
        return lambda x: 1e-300 * scale * (x - root)
    return lambda x: -math.log1p(scale * abs(x - root)) * (1.0 if x < root else -1.0)


def _outcome(call, f, a, b, xtol, rtol):
    try:
        return call(f, a, b, xtol=xtol, rtol=rtol).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(["power", "atan", "exp", "steps", "tiny", "log"]),
    root=st.floats(-10.0, 10.0),
    scale=st.floats(1e-3, 1e3),
    power=st.sampled_from([1, 3, 5, 7]),
    left=st.floats(1e-3, 20.0),
    right=st.floats(1e-3, 20.0),
    flip=st.booleans(),
    xtol=st.sampled_from(XTOLS),
    rtol=st.sampled_from(RTOLS),
)
@example(  # reaches a zero interpolation denominator, where scipy's C step is infinite
    kind="tiny", root=-1.3370114552333678, scale=1.0, power=1, left=9.131703559152502,
    right=16.080007199464536, flip=False, xtol=1e-15, rtol=8.9e-16,
)
def test_brentq_equals_scipy(kind, root, scale, power, left, right, flip, xtol, rtol):
    f = _function(kind, root, scale, power)
    a, b = root - left, root + right
    if flip:
        a, b = b, a
    # the same root to the last bit, or the same error: an odd power with its
    # root at 0 can run out of iterations at the tightest tolerances
    assert _outcome(brentq, f, a, b, xtol, rtol) == _outcome(optimize.brentq, f, a, b, xtol, rtol)


def test_brentq_errors_match_scipy():
    for call in (brentq, optimize.brentq):
        with pytest.raises(ValueError, match="f\\(a\\) and f\\(b\\) must have different signs"):
            call(lambda x: x * x + 1.0, 0.0, 1.0, xtol=2e-12, rtol=1e-15)
        with pytest.raises(RuntimeError, match="Failed to converge after 3 iterations"):
            call(lambda x: x**3 - 2.0, 0.0, 5.0, xtol=2e-12, rtol=1e-15, maxiter=3)
        with pytest.raises(ValueError, match="NaN"):
            call(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0, xtol=2e-12, rtol=1e-15)


def test_brentq_endpoint_roots():
    assert brentq(lambda x: x - 0.25, 0.25, 1.0, xtol=2e-12, rtol=1e-15) == 0.25
    assert brentq(lambda x: x - 1.0, 0.25, 1.0, xtol=2e-12, rtol=1e-15) == 1.0


@pytest.mark.parametrize("n", [2, 3, 10, 399, 10**3, 10**5])
def test_gm_root_unchanged_from_scipy(n):
    want = optimize.brentq(lambda c: thresholds._gm_series(c, n) - 1.0, 0.0, 1.0, xtol=1e-15, rtol=1e-15)
    assert thresholds._gm_root(n) == want
