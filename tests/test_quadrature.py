import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stoppred.quadrature import adaptive_simpson, gauss_refine, log_time_integral, pow_integral


def test_tol_validation():
    def never(t):
        raise AssertionError("the integrand was called with an invalid tolerance")

    for integrate in (adaptive_simpson, gauss_refine):
        for tol in (0.0, -1e-9, math.nan):
            for a, b in ((0.0, 1.0), (0.5, 0.5)):
                with pytest.raises(ValueError, match="tolerance must be positive"):
                    integrate(never, a, b, tol)


def test_adaptive_simpson_polynomial():
    val = adaptive_simpson(lambda t: 3.0 * t * t, 0.0, 2.0, 1e-12)
    assert val == pytest.approx(8.0, abs=1e-10)


def test_adaptive_simpson_log_endpoint():
    # integrable singularity at 0: int_0^1 -ln(t) dt = 1
    val = adaptive_simpson(lambda t: -math.log(t), 1e-300, 1.0, 1e-10)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_gauss_refine_oscillatory():
    val = gauss_refine(lambda t: np.sin(10.0 * t), 0.0, math.pi, 1e-11)
    assert val == pytest.approx((1.0 - math.cos(10.0 * math.pi)) / 10.0, abs=1e-9)


def test_tolerance_self_consistency():
    f = lambda t: np.exp(-t) / (t + 0.1)
    coarse = gauss_refine(f, 0.0, 1.0, 1e-8)
    fine = gauss_refine(f, 0.0, 1.0, 5e-9)
    assert abs(coarse - fine) <= 1e-8


def test_pow_integral_closed_form():
    assert pow_integral(1.0, 0.2, 0.9) == pytest.approx(0.7)
    assert pow_integral(0.0, 0.2, 0.9) == 0.0
    v, a, b = 0.37, 0.1, 0.8
    expect = (v**b - v**a) / math.log(v)
    assert pow_integral(v, a, b) == pytest.approx(expect, rel=1e-14)


def test_log_time_integral_matches_reference():
    # reference: direct adaptive quadrature of v**t / t
    for v in (0.05, 0.4, 0.99, 1.3):
        ref = adaptive_simpson(lambda t: v**t / t, 0.01, 1.0, 1e-12)
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
    logv = math.log(v)
    ref = gauss_refine(lambda w: np.exp(np.exp(w) * logv), math.log(a), math.log(b), 1e-13)
    assert abs(log_time_integral(v, a, b) - ref) <= 1e-11
