import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stoppred.analytics import (
    _LTable,
    c_series,
    check_consistency_conditions,
    consistency_integral,
    consistency_density,
    win_probability,
    googol_win_formula,
    maxexp_tail_prob,
    maxprob_alpha,
    solve_constant_c,
)
from stoppred.engine import accepted_value_samples, simulate
from stoppred.priors import E_INV, Uniform, lambda_pair
from stoppred.quadrature import adaptive_simpson
from stoppred.thresholds import ThresholdFn, dynkin_threshold, gm_threshold, robustify, single_threshold

from conftest import random_step_threshold

UNIT = Uniform(0.0, 1.0)
ONES = ThresholdFn([1.0], [1.0])

GAUSS_N, GAUSS_W = np.polynomial.legendre.leggauss(200)


def _gauss(f, a, b):
    """Fixed-order Gauss rule, the independent second quadrature route."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.sum(GAUSS_W * f(mid + half * GAUSS_N)))


def test_constant_c_value_and_residual():
    c = solve_constant_c()
    assert 0.80430 <= c <= 0.80440
    assert abs(c_series(c) - 1.0) <= 1e-12


def test_constant_c_series_brackets():
    assert c_series(1.0) > 1.0
    assert c_series(0.5) < 1.0


def test_maxprob_alpha_endpoints():
    assert abs(maxprob_alpha(E_INV) - E_INV) <= 1e-9
    assert abs(maxprob_alpha(0.0) - 0.5801) <= 5e-4


def test_maxprob_alpha_rejects_outside():
    with pytest.raises(ValueError):
        maxprob_alpha(-0.1)
    with pytest.raises(ValueError):
        maxprob_alpha(0.5)


# frozen after the dual-quadrature check below agreed to 1e-6 on first run
ALPHA_THIRD_GOLDEN = 0.4823063284


def test_maxprob_alpha_third_against_gauss_oracle():
    c = solve_constant_c()
    pair = lambda_pair(1.0 / 3.0)

    def inner(svec):
        out = np.empty_like(svec)
        for i, s in enumerate(svec):
            kappa = c / (1.0 - s)
            out[i] = _gauss(lambda t: np.exp(-kappa * t) / t, s, 1.0)
        return out

    oracle = 1.0 / 3.0 + _gauss(inner, pair.lambda1, pair.lambda2)
    value = maxprob_alpha(1.0 / 3.0)
    assert abs(value - oracle) <= 1e-6
    assert value == pytest.approx(ALPHA_THIRD_GOLDEN, abs=2e-7)


def test_maxprob_alpha_monotone_nonincreasing():
    betas = np.linspace(0.0, E_INV, 50)
    vals = [maxprob_alpha(b) for b in betas]
    assert np.all(np.diff(vals) <= 1e-7)


def _simpson_maxprob_alpha(beta):
    """maxprob_alpha by its former route, the reference for the closed form:
    adaptive Simpson over s of E1(kappa s) - E1(kappa), kappa = c/(1-s), with
    scipy's E1 and the lower limit clipped to 1e-12.

    The tolerance is 1e-11, not the former route's 1e-9: at 1e-9 the
    reference itself strays by up to 8e-9 (2.6e-10 at beta = 27/512), past the
    2e-10 the test asserts, while the closed form agrees with mpmath to 1e-16.
    At 1e-11 the reference's error is the 2.8e-11 of the clipped limit."""
    from scipy.special import exp1

    if beta >= E_INV - 1e-13:
        return min(beta, E_INV)
    pair = lambda_pair(beta)
    c = solve_constant_c()

    def inner(s):
        if s >= 1.0 - 1e-15:
            return 0.0
        kappa = c / (1.0 - s)
        return float(exp1(kappa * s) - exp1(kappa))

    return beta + adaptive_simpson(inner, max(pair.lambda1, 1e-12), pair.lambda2, 1e-11)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, E_INV))
@example(0.0)
@example(0.052734375)
@example(0.3678)
@example(E_INV - 2e-13)
def test_maxprob_alpha_closed_form_matches_simpson(beta):
    assert abs(maxprob_alpha(beta) - _simpson_maxprob_alpha(beta)) <= 2e-10


@pytest.mark.parametrize("beta", [0.01, 0.2, 1.0 / 3.0])
def test_maxprob_alpha_matches_dblquad(beta):
    from scipy import integrate

    c = solve_constant_c()
    pair = lambda_pair(beta)
    band, _ = integrate.dblquad(
        lambda t, s: math.exp(-c * t / (1.0 - s)) / t, pair.lambda1, pair.lambda2, lambda s: s, 1.0,
        epsabs=1e-13, epsrel=1e-13,
    )
    assert abs(maxprob_alpha(beta) - (beta + band)) <= 1e-11


def test_googol_formula_single_value():
    lam = 0.3
    assert googol_win_formula([0.8], dynkin_threshold(lam)) == pytest.approx(1.0 - lam, abs=1e-14)


def test_googol_formula_equal_levels_binary_threshold():
    lam = 0.45
    q = 0.6
    expect = (1.0 - lam) ** 2 / 2.0 + lam * (1.0 - lam)
    got = googol_win_formula([q, q], dynkin_threshold(lam))
    assert got == pytest.approx(expect, abs=1e-14)


def test_googol_formula_threshold_one():
    assert googol_win_formula([0.2, 0.5, 0.9], ONES) == 0.0


def test_googol_formula_validates():
    with pytest.raises(ValueError):
        googol_win_formula([0.9, 0.2], ONES)
    with pytest.raises(ValueError):
        googol_win_formula([0.2, 1.2], ONES)


def test_win_prob_dynkin_matches_wait_value():
    # the wait phase contributes -lam ln lam exactly; the tail term is
    # astronomically small at n = 200
    val = win_probability(dynkin_threshold(E_INV), 200)
    assert val == pytest.approx(E_INV, abs=1e-9)
    val6 = win_probability(dynkin_threshold(0.6), 200)
    assert val6 == pytest.approx(-0.6 * math.log(0.6), abs=1e-9)


def test_win_prob_threshold_one_is_zero():
    assert win_probability(ONES, 7) == pytest.approx(0.0, abs=1e-10)


def test_win_prob_rejects_bad_n():
    with pytest.raises(ValueError):
        win_probability(ONES, 0)


def test_win_prob_matches_simulation_spot():
    theta = robustify(gm_threshold(5, 60), lambda_pair(0.25))
    exact = win_probability(theta, 5)
    rep = simulate(UNIT, UNIT, theta, 5, 60_000, 1001)
    assert abs(rep.maxprob - exact) <= 4.0 * rep.maxprob_se


def test_maxexp_tail_edges():
    assert maxexp_tail_prob(dynkin_threshold(0.4), 5, 1.0) == 0.0
    assert maxexp_tail_prob(ONES, 5, 0.5) == 0.0


def test_maxexp_tail_against_engine():
    theta = robustify(single_threshold(5), lambda_pair(0.25))
    n, y = 5, 0.5
    exact = maxexp_tail_prob(theta, n, y)
    level = float(UNIT.quantile(y ** (1.0 / n)))
    acc, _ = accepted_value_samples(UNIT, UNIT, theta.powered(1.0 / n), n, 200_000, 321)
    p = float(np.mean(acc >= level))
    se = math.sqrt(p * (1.0 - p) / len(acc))
    assert abs(exact - p) <= 4.0 * se


def test_consistency_density_dynkin_closed_form():
    lam2 = 0.55
    theta = dynkin_threshold(lam2)
    for q in (0.2, 0.7, 1.0):
        oracle = _gauss(lambda t: lam2 / t * q ** (t - 1.0), lam2, 1.0)
        assert consistency_density(theta, q) == pytest.approx(oracle, abs=1e-8)
    # q = 1 integrates the area of the wait phase: -lam ln lam
    assert consistency_density(theta, 1.0) == pytest.approx(-lam2 * math.log(lam2), abs=1e-9)


def test_consistency_density_monotone_below_terminal_level():
    theta = robustify(gm_threshold(6, 40), lambda_pair(0.3))
    cap = theta.eval(lambda_pair(0.3).lambda2)
    qs = np.linspace(0.05, cap, 7)
    vals = [consistency_density(theta, q) for q in qs]
    assert np.all(np.diff(vals) <= 1e-9)


def test_consistency_density_rejects_zero():
    with pytest.raises(ValueError):
        consistency_density(dynkin_threshold(0.5), 0.0)


def test_consistency_integral_matches_table():
    rng = np.random.default_rng(17)
    for _ in range(20):
        theta = robustify(random_step_threshold(rng), lambda_pair(rng.uniform(0.05, E_INV)))
        table = _LTable(theta)
        for z in rng.random(5):
            assert table.value(z) == pytest.approx(consistency_integral(theta, z), abs=1e-9)


def test_consistency_integral_brute_force_spot():
    from scipy import integrate

    theta = robustify(gm_threshold(5, 12), lambda_pair(0.25))
    for z in (0.3, 0.5):
        # both integrands are smooth between the threshold's breakpoints;
        # z = 0.5 is itself one
        kinks = theta.breakpoints[(theta.breakpoints >= z) & (theta.breakpoints < 1.0)]

        def inner(t):
            val, _ = integrate.quad(
                lambda s: theta.eval(max(s, z)) ** t / t, 0.0, t, limit=100, points=kinks[kinks < t]
            )
            return val

        brute, _ = integrate.quad(inner, z, 1.0, limit=100, points=kinks[kinks > z])
        assert consistency_integral(theta, z) == pytest.approx(brute, abs=1e-5)


def test_check_thm11_alpha_zero_nonnegative():
    rng = np.random.default_rng(23)
    theta = robustify(random_step_threshold(rng), lambda_pair(0.2))
    assert check_consistency_conditions(theta, 0.0, lambda_pair(0.2), grid=200) >= 0.0


def test_check_thm11_full_consistency_unattainable():
    pair = lambda_pair(E_INV)
    theta = robustify(dynkin_threshold(E_INV), pair)
    worst = check_consistency_conditions(theta, 1.0, pair, grid=10)
    assert worst < -0.5  # L(1/e) = 1/e against alpha * theta = 1


def test_win_probability_matches_nested_quad():
    # Gamma_n from the double integral in win_probability's docstring,
    # integrated in its own order by scipy's quad.  The inner 1/t
    # singularity is split off: its part is -ln s, and int_0^1 -ln s ds = 1.
    # The outer integrand jumps at the threshold's breakpoints.
    from scipy import integrate

    n = 4
    theta = robustify(gm_threshold(n, 30), lambda_pair(0.3))

    def smooth_part(t, v):
        return ((1.0 - t * (1.0 - v)) ** n - t * v**n - (1.0 - t)) / (t * (1.0 - t))

    def outer(s):
        v = theta.eval(s)
        inner, _ = integrate.quad(smooth_part, s, 1.0, args=(v,), epsabs=1e-13, epsrel=1e-13)
        return inner - v**n

    kinks = theta.breakpoints[theta.breakpoints < 1.0]
    rest, _ = integrate.quad(outer, 0.0, 1.0, points=kinks, limit=200, epsabs=1e-12, epsrel=1e-12)
    assert abs(win_probability(theta, n) - (1.0 + rest)) <= 1e-8
