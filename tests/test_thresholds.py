import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stoppred import thresholds
from stoppred.analytics import solve_constant_c
from stoppred.priors import E_INV, lambda_pair
from stoppred.thresholds import (
    ThresholdFn,
    dynkin_threshold,
    gm_threshold,
    robustify,
    single_threshold,
    threshold_from_csv,
    threshold_to_csv,
)

from conftest import random_step_threshold
from reference import clamped, generalized_inverse, powered


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


def _searchsorted_eval(theta, t):
    """eval's definition: values[min(searchsorted(breakpoints, t, "left"), len - 1)]."""
    idx = np.searchsorted(theta.breakpoints, np.asarray(t, dtype=float), side="left")
    return theta.values[np.minimum(idx, len(theta.values) - 1)]


def _with_breaks(breaks):
    breaks = np.unique(np.append(breaks[(breaks > 0.0) & (breaks < 1.0)], 1.0))
    return ThresholdFn(breaks, np.linspace(1.0, 0.0, len(breaks)))


@st.composite
def eval_thresholds(draw):
    """Thresholds for eval's table: clustered breakpoints, one piece, robustified
    gm grids, and grids of 3e4 pieces (a full table) and 1e5 pieces (too many
    for one)."""
    kind = draw(st.sampled_from(["clustered", "one-piece", "robust-gm", "grid"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "clustered":
        rng = np.random.default_rng(seed)
        return _with_breaks(rng.random(draw(st.integers(1, 400))) ** draw(st.sampled_from([1, 5, 30])))
    if kind == "one-piece":
        return ThresholdFn([1.0], [draw(st.floats(0.0, 2.0))])
    if kind == "robust-gm":
        n, m = draw(st.integers(2, 200)), draw(st.integers(2, 2000))
        return robustify(gm_threshold(n, m), lambda_pair(draw(st.floats(0.0, E_INV))))
    return gm_threshold(draw(st.integers(2, 50)), draw(st.sampled_from([30_000, 100_000])))


SUBNORMALS = [5e-324, 1e-320, 2.2250738585072009e-308]


def _probe_times(theta, extra):
    """Every breakpoint and its two neighbouring floats, 0, 1, subnormals and extra."""
    bp = theta.breakpoints
    return np.concatenate(
        [bp, np.nextafter(bp, 0.0), np.minimum(np.nextafter(bp, 2.0), 1.0), [0.0, -0.0, 1.0], SUBNORMALS, extra]
    )


def _uniform_times(seed):
    # enough times for eval to use its table
    return np.random.default_rng(seed).random(thresholds._TABLE_MIN_SIZE)


@settings(max_examples=120, deadline=None)
@given(eval_thresholds(), st.lists(st.floats(0.0, 1.0), max_size=100), st.integers(0, 2**32 - 1))
def test_eval_table_matches_searchsorted(theta, extra, seed):
    t = _probe_times(theta, extra + _uniform_times(seed).tolist())
    got = theta.eval(t)
    assert got.dtype == float and np.array_equal(got, _searchsorted_eval(theta, t))
    # a second call reuses the table
    assert np.array_equal(theta.eval(t[::-1]), _searchsorted_eval(theta, t[::-1]))


OUTSIDE = [-0.0, -1e-300, -0.5, 1.0 + 2**-52, 7.0, math.inf, -math.inf, math.nan]


@settings(max_examples=100, deadline=None)
@given(
    eval_thresholds(),
    st.lists(st.floats(0.0, 1.0), max_size=100),
    st.lists(st.sampled_from(OUTSIDE), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
)
def test_eval_outside_unit_interval_matches_searchsorted(theta, inside, outside, seed):
    # arrays large enough for the table, which a single time outside [0, 1] turns away
    t = np.array(inside + _uniform_times(seed).tolist() + outside)
    assert np.array_equal(theta.eval(t), _searchsorted_eval(theta, t))
    for x in OUTSIDE:
        assert theta.eval(x) == float(_searchsorted_eval(theta, x))


def test_eval_shapes():
    theta = robustify(gm_threshold(10, 300), lambda_pair(0.3))
    rng = np.random.default_rng(5)
    for t in (0.4, np.float64(0.4), np.array(0.4), 1, np.array([0.4])):
        out = theta.eval(t)
        assert type(out) is (float if np.ndim(t) == 0 else np.ndarray)
        assert out == _searchsorted_eval(theta, t)
    for t in (np.empty(0), np.empty((0, 3)), rng.random((3, 4)), rng.random((50, 40)), rng.random((2, 500)).T):
        out = theta.eval(t)
        assert out.shape == t.shape and np.array_equal(out, _searchsorted_eval(theta, t))
    assert theta._table is not None  # the 2000-time array went through the table


def test_eval_table_guard():
    t = _uniform_times(6)
    # a table for 3e4 pieces fits; for 1e5 or 1e6 it would be too large
    for m, table in [(30_000, True), (100_000, False), (1_000_000, False)]:
        theta = gm_threshold(10, m)
        assert np.array_equal(theta.eval(t), _searchsorted_eval(theta, t))
        assert (theta._table is not None) == table
    # clustered breakpoints crowd one cell beyond the correction passes
    clustered = _with_breaks(np.random.default_rng(7).random(100) ** 30)
    assert np.array_equal(clustered.eval(t), _searchsorted_eval(clustered, t))
    assert clustered._table is None
    # a gm grid and a robustified one need at most the passes allowed
    for theta in (gm_threshold(10, 300), robustify(gm_threshold(10, 300), lambda_pair(1 / 3))):
        theta.eval(t)
        assert 1 <= theta._table[2] <= thresholds._TABLE_MAX_PASSES


def test_generalized_inverse_examples():
    assert generalized_inverse(dynkin_threshold(E_INV), 0.5) == pytest.approx(E_INV)
    zero = ThresholdFn([1.0], [0.0])
    assert generalized_inverse(zero, 0.5) == 0.0
    steps = ThresholdFn([0.3, 0.7, 1.0], [1.0, 0.4, 0.0])
    assert generalized_inverse(steps, 0.4) == 0.7
    assert generalized_inverse(steps, 0.41) == 0.3
    assert generalized_inverse(steps, 1.0) == 0.3
    ones = ThresholdFn([1.0], [1.0])
    assert generalized_inverse(ones, 0.5) == 1.0


def test_validation():
    with pytest.raises(ValueError):
        ThresholdFn([0.5, 1.0], [0.2, 0.8])  # increasing values
    with pytest.raises(ValueError, match="non-increasing"):
        ThresholdFn([0.5, 1.0], [0.5, 0.5 + 1e-15])  # any rise, however small
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


@st.composite
def step_functions(draw, max_level=1.0):
    """ThresholdFn with up to seven pieces and arbitrary float breakpoints."""
    inner = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=6, unique=True))
    levels = draw(st.lists(st.floats(0.0, max_level), min_size=len(inner) + 1, max_size=len(inner) + 1))
    return ThresholdFn(sorted(inner) + [1.0], sorted(levels, reverse=True))


@settings(max_examples=150, deadline=None)
@given(step_functions(max_level=2.0), st.floats(0.0, E_INV))
@example(ThresholdFn([0.3, 1.0], [0.8, 0.1]), 0.0)
@example(ThresholdFn([0.3, 1.0], [0.8, 0.1]), E_INV)
def test_robustify_idempotent(theta, beta):
    pair = lambda_pair(beta)
    once = robustify(theta, pair)
    assert robustify(once, pair) == once


@settings(max_examples=150, deadline=None)
@given(step_functions(max_level=2.0), st.floats(0.0, E_INV))
@example(ThresholdFn([0.3, 1.0], [0.8, 0.1]), 0.0)
@example(ThresholdFn([0.3, 1.0], [0.8, 0.1]), E_INV)
@example(ThresholdFn([1.0], [1.5]), 0.2)
def test_robustify_honours_the_bands(theta, beta):
    pair = lambda_pair(beta)
    lam1, lam2 = pair.lambda1, pair.lambda2
    rob = robustify(theta, pair)
    # every breakpoint of either function and of the bands, a point on each
    # side of each, and the midpoints between them
    marks = np.unique(np.concatenate([theta.breakpoints, rob.breakpoints, [lam1, lam2]]))
    probes = np.concatenate([marks, np.nextafter(marks, 0.0), np.nextafter(marks, 1.0), 0.5 * (marks[1:] + marks[:-1])])
    probes = probes[(probes > 0.0) & (probes <= 1.0)]
    got, kept = rob.eval(probes), clamped(theta).eval(probes)
    assert np.all(got[probes <= lam1] == 1.0)
    assert np.all(got[probes > lam2] == 0.0)
    middle = (probes > lam1) & (probes <= lam2)
    assert np.array_equal(got[middle], kept[middle])


def test_eval_inverse_consistency_random():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        theta = random_step_threshold(rng)
        x = rng.random()
        z = generalized_inverse(theta, x)
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
    theta = thresholds._gm_levels(n, s)
    assert abs(_foc_series(theta, n, s) - 1.0) <= 1e-9


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10**4), st.floats(0.0, 1.0, exclude_max=True))
def test_gm_value_satisfies_foc_series_everywhere(n, s):
    theta = thresholds._gm_levels(n, s)
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


def test_gm_threshold_strictly_decreasing():
    theta = gm_threshold(10, 60)
    assert np.all(np.diff(theta.values) < 0.0)


def test_gm_residual_on_grid():
    for n in (2, 5, 10, 50):
        theta = gm_threshold(n, 24)
        grid = np.arange(24) / 24
        for s, v in zip(grid, theta.values):
            assert abs(_foc_series(v, n, s) - 1.0) <= 1e-9


def _gm_asymptotic(s, n, c):
    """Large-n approximation 1 / (1 + c / ((n-1)(1-s))) of the best-choice level."""
    return 1.0 / (1.0 + c / ((n - 1) * (1.0 - s)))


def test_gm_asymptotic_matches_solver_at_large_n():
    c = solve_constant_c()
    v = thresholds._gm_levels(1000, 0.5)
    assert abs(v - _gm_asymptotic(0.5, 1000, c)) <= 1e-4


def test_gm_asymptotic_error_vanishes_at_rate():
    c = solve_constant_c()
    errs = []
    for n in (100, 1000, 10000):
        gap = abs(thresholds._gm_levels(n, 0.5) - _gm_asymptotic(0.5, n, c))
        errs.append(n * gap)
    assert errs[0] > errs[1] > errs[2]


@settings(max_examples=150, deadline=None)
@given(step_functions(max_level=1e300))
@example(ThresholdFn([0.25, 0.7, 1.0], [0.9, 0.4, 0.0]))
def test_csv_roundtrip(theta):
    # %.17g prints every double so that it parses back to the same double
    text = threshold_to_csv(theta)
    assert text.splitlines()[0] == "t,theta"
    back = threshold_from_csv(text)
    assert back == theta


def test_powered_and_clamped():
    theta = ThresholdFn([0.5, 1.0], [1.2, 0.0])
    assert clamped(theta).values.tolist() == [1.0, 0.0]
    p = powered(ThresholdFn([0.5, 1.0], [0.25, 0.0]), 0.5)
    assert p.values.tolist() == [0.5, 0.0]
