import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stoppred import thresholds
from stoppred.analytics import solve_constant_c
from stoppred.priors import E_INV, lambda_pair
from stoppred.thresholds import (
    ThresholdFn,
    dynkin_threshold,
    gm_asymptotic,
    gm_threshold,
    gm_threshold_value,
    robustify,
    single_threshold,
    threshold_from_csv,
    threshold_to_csv,
)

from conftest import random_step_threshold


def test_eval_examples():
    dyn = dynkin_threshold(E_INV)
    assert dyn.eval(0.2) == 1.0
    assert dyn.eval(0.5) == 0.0
    assert dyn.eval(E_INV) == 1.0  # left-continuous at the step
    ones = ThresholdFn([1.0], [1.0])
    for t in (0.0, 0.3, 1.0):
        assert ones.eval(t) == 1.0


def test_eval_vectorized():
    dyn = dynkin_threshold(0.4)
    out = dyn.eval(np.array([0.1, 0.4, 0.41, 1.0]))
    assert out.tolist() == [1.0, 1.0, 0.0, 0.0]


def test_generalized_inverse_examples():
    assert dynkin_threshold(E_INV).generalized_inverse(0.5) == pytest.approx(E_INV)
    zero = ThresholdFn([1.0], [0.0])
    assert zero.generalized_inverse(0.5) == 0.0
    steps = ThresholdFn([0.3, 0.7, 1.0], [1.0, 0.4, 0.0])
    assert steps.generalized_inverse(0.4) == 0.7
    assert steps.generalized_inverse(0.41) == 0.3
    assert steps.generalized_inverse(1.0) == 0.3
    ones = ThresholdFn([1.0], [1.0])
    assert ones.generalized_inverse(0.5) == 1.0


def test_validation():
    with pytest.raises(ValueError):
        ThresholdFn([0.5, 1.0], [0.2, 0.8])  # increasing values
    with pytest.raises(ValueError):
        ThresholdFn([0.5], [1.0])  # last breakpoint not 1
    with pytest.raises(ValueError):
        ThresholdFn([0.5, 0.5, 1.0], [1.0, 0.5, 0.0])
    for breaks, vals in [([math.nan, 1.0], [1.0, 0.0]), ([0.5, 1.0], [math.nan, 0.0]), ([1.0], [math.nan])]:
        with pytest.raises(ValueError):
            ThresholdFn(breaks, vals)


def test_dynkin_edges():
    assert dynkin_threshold(0.0).eval(0.5) == 0.0
    assert dynkin_threshold(1.0).eval(0.5) == 1.0


def test_single_threshold():
    assert single_threshold(1).eval(0.7) == 0.0
    assert single_threshold(2).eval(0.7) == 0.5
    assert single_threshold(10).eval(0.7) == pytest.approx(0.9)


def test_robustify_degenerate_band_is_dynkin():
    pair = lambda_pair(E_INV)
    theta = single_threshold(10)
    rob = robustify(theta, pair)
    probe = np.linspace(0.0, 1.0, 101)
    expect = dynkin_threshold(pair.lambda1)
    assert np.allclose(rob.eval(probe), expect.eval(probe))


def test_robustify_empty_bands_clamps():
    pair = lambda_pair(0.0)
    theta = ThresholdFn([0.4, 1.0], [1.5, 0.2])  # solver-style level above 1
    rob = robustify(theta, pair)
    assert rob.eval(0.2) == 1.0
    assert rob.eval(0.9) == pytest.approx(0.2)


def test_robustify_band_shape():
    pair = lambda_pair(1.0 / 3.0)
    rob = robustify(gm_threshold(10, 120), pair)
    assert rob.eval(0.9 * pair.lambda1) == 1.0
    assert rob.eval(pair.lambda2 + 1e-6) == 0.0
    assert rob.eval(1.0) == 0.0
    mid = 0.5 * (pair.lambda1 + pair.lambda2)
    assert 0.0 < rob.eval(mid) < 1.0


def test_robustify_idempotent():
    rng = np.random.default_rng(42)
    for _ in range(50):
        theta = random_step_threshold(rng)
        pair = lambda_pair(rng.uniform(0.0, E_INV))
        once = robustify(theta, pair)
        twice = robustify(once, pair)
        assert once == twice


def test_eval_inverse_consistency_random():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        theta = random_step_threshold(rng)
        x = rng.random()
        z = theta.generalized_inverse(x)
        ts = rng.random(20)
        for t in ts:
            if t <= z:
                assert theta.eval(t) >= x
            else:
                assert theta.eval(t) < x


def _foc_series(theta, n, s):
    # closed form of the first-order condition integral:
    # sum_{k=1}^{n-1} C(n-1, k) (x (1-s))^k / k with x = 1/theta - 1
    x = 1.0 / theta - 1.0
    total = 0.0
    term = 1.0
    for k in range(1, n):
        term *= (n - k) / k * (x * (1.0 - s))
        total += term / k
        if abs(term) < 1e-18 * max(abs(total), 1.0):
            break
    return total


@pytest.mark.parametrize("n,s", [(2, 0.0), (5, 0.3), (10, 0.5), (50, 0.9), (200, 0.1)])
def test_gm_value_satisfies_foc_series(n, s):
    theta = gm_threshold_value(n, s)
    assert abs(_foc_series(theta, n, s) - 1.0) <= 1e-9


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10**4), st.floats(0.0, 1.0, exclude_max=True))
def test_gm_value_satisfies_foc_series_everywhere(n, s):
    theta = gm_threshold_value(n, s)
    # at s = 0, x = 1/theta - 1 is about 0.8/(n-1), so rounding theta and
    # 1/theta alone moves the residual by up to about 1.5 (n-1) eps: at
    # n = 10^4 that is above 1e-12 for any double level
    rounding = 2.0 * (n - 1) * np.finfo(float).eps
    assert abs(_foc_series(theta, n, s) - 1.0) <= 1e-12 + rounding


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10**7))
def test_gm_root_tends_to_series_constant(n):
    # (n-1) y_n falls to the constant c of the large-n threshold at rate 1/n
    gap = thresholds._gm_root(n) - solve_constant_c()
    assert 0.0 < gap * (n - 1) <= 0.2


def test_gm_value_boundary():
    assert gm_threshold_value(7, 1.0) == 0.0


def test_gm_threshold_strictly_decreasing():
    theta = gm_threshold(10, 60)
    assert np.all(np.diff(theta.values) < 0.0)


def test_gm_residual_on_grid():
    for n in (2, 5, 10, 50):
        theta = gm_threshold(n, 24)
        grid = np.arange(24) / 24
        for s, v in zip(grid, theta.values):
            assert abs(_foc_series(v, n, s) - 1.0) <= 1e-9


def test_gm_asymptotic_examples():
    c = 0.80435
    assert gm_asymptotic(0.0, 2, c) == pytest.approx(1.0 / 1.80435, abs=1e-12)
    assert gm_asymptotic(0.5, 10**7, c) == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(ValueError):
        gm_asymptotic(1.0, 5, c)


def test_gm_asymptotic_matches_solver_at_large_n():
    c = solve_constant_c()
    v = gm_threshold_value(1000, 0.5)
    assert abs(v - gm_asymptotic(0.5, 1000, c)) <= 1e-4


def test_gm_asymptotic_error_vanishes_at_rate():
    c = solve_constant_c()
    errs = []
    for n in (100, 1000, 10000):
        gap = abs(gm_threshold_value(n, 0.5) - gm_asymptotic(0.5, n, c))
        errs.append(n * gap)
    assert errs[0] > errs[1] > errs[2]


def test_csv_roundtrip():
    theta = ThresholdFn([0.25, 0.7, 1.0], [0.9, 0.4, 0.0])
    text = threshold_to_csv(theta)
    assert text.splitlines()[0] == "t,theta"
    back = threshold_from_csv(text)
    assert back == theta


def test_powered_and_clamped():
    theta = ThresholdFn([0.5, 1.0], [1.2, 0.0])
    assert theta.clamped().values.tolist() == [1.0, 0.0]
    p = ThresholdFn([0.5, 1.0], [0.25, 0.0]).powered(0.5)
    assert p.values.tolist() == [0.5, 0.0]
