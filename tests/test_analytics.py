import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stoppred.analytics import (
    _LTable,
    c_series,
    check_consistency_conditions,
    win_probability,
    googol_win_formula,
    maxprob_alpha,
    solve_constant_c,
)
from stoppred.engine import accepted_value_samples, simulate
from stoppred.priors import E_INV, Uniform, lambda_pair
from stoppred.thresholds import ThresholdFn, dynkin_threshold, gm_threshold, robustify, single_threshold

from conftest import random_step_threshold
from reference import consistency_integral, generalized_inverse, powered

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


def _mp_maxprob_alpha(beta):
    """maxprob_alpha by its former route, the reference for the closed form:
    quadrature over s of E1(kappa s) - E1(kappa), kappa = c/(1-s), here by
    mpmath at 30 digits.  Tanh-sinh nodes never reach the ends, so neither
    the log singularity at s = 0 (beta = 0) nor s = 1 needs a clipped limit."""
    if beta >= E_INV - 1e-13:
        return min(beta, E_INV)
    pair = lambda_pair(beta)
    c = solve_constant_c()
    with mpmath.workdps(30):

        def inner(s):
            kappa = c / (1 - s)
            return mpmath.e1(kappa * s) - mpmath.e1(kappa)

        return beta + float(mpmath.quad(inner, [pair.lambda1, pair.lambda2]))


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, E_INV))
@example(0.0)
@example(0.052734375)
@example(0.3678)
@example(E_INV - 2e-13)
def test_maxprob_alpha_closed_form_matches_simpson(beta):
    assert abs(maxprob_alpha(beta) - _mp_maxprob_alpha(beta)) <= 2e-10


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


def _win_terms(t, v, n):
    """(A, D, (A - 1)/t) at t, with A = (1 - t r)^n, r = 1 - v and
    D = (A - v^n)/(1 - t), each free of cancellation.  A - v^n is
    -A expm1(-n ln(1 + r(1-t)/v)), exact to rounding as t -> 1, where D
    tends to n r v^(n-1); A - 1 is expm1(n ln(1 - t r)), exact to rounding
    as t -> 0, where (A - 1)/t tends to -n r."""
    t = float(t)
    r, u = 1.0 - v, 1.0 - t
    a_pow = (1.0 - t * r) ** n
    if t == 0.0:
        a_less_1 = -n * r
    elif t * r < 1.0:
        a_less_1 = math.expm1(n * math.log1p(-t * r)) / t
    else:
        a_less_1 = -1.0 / t
    if v == 0.0:
        d = u ** (n - 1)
    elif u == 0.0:
        d = n * r * v ** (n - 1)
    else:
        # ln(1 + r u / v), without forming r u / v where it could overflow
        log_ratio = math.log1p(r * u / v) if r * u <= v else math.log(v + r * u) - math.log(v)
        d = -a_pow * math.expm1(-n * log_ratio) / u
    return a_pow, d, a_less_1


def _quad_piece(f, lo, hi, v, n):
    """int_lo^hi f by scipy's quad, split where (1 - t r)^n has fallen by
    e, e^8 and e^64 since lo.  Below a width of 1e-6 quad's nodes can
    collapse onto a few doubles, and the 200-point Gauss rule is exact to
    rounding there: no feature of the integrand is narrower than 1/n."""
    from scipy import integrate

    if hi - lo < 1e-6:
        return _gauss(np.vectorize(f), lo, hi)
    points = [] if v >= 1.0 else [lo + s / (n * (1.0 - v)) for s in (1.0, 8.0, 64.0)]
    points = [p for p in points if lo < p < hi] or None
    return integrate.quad(f, lo, hi, points=points, epsabs=1e-13, epsrel=1e-12, limit=200)[0]


def _quad_win_probability(theta, n):
    """Gamma_n(theta) piece by piece with scipy's quad, the reference for the
    exact sums.  A piece (a, b] at level v contributes

        int_a^b w_v(t) (t - a) dt + (b - a) int_b^1 w_v(t) dt - v^n (b - a)

    with w_v = A/t + D as in win_probability's docstring.  Each int A/t dt
    over (lo, hi] is taken as ln(hi/lo) + int (A - 1)/t dt, so every
    integrand handed to quad is bounded and varies on no scale finer than
    1/(n r), however close a breakpoint lies to 0."""
    total = 0.0
    for a, b, v in theta.pieces():

        def near(t, a=a, v=v):
            a_pow, d, a_less_1 = _win_terms(t, v, n)
            return a_pow + d * (t - a) - (a * a_less_1 if a > 0.0 else 0.0)

        def far(t, v=v):
            _, d, a_less_1 = _win_terms(t, v, n)
            return d + a_less_1

        part = _quad_piece(near, a, b, v, n)
        if a > 0.0:
            part -= a * (math.log(b) - math.log(a))
        if b < 1.0:
            part += (b - a) * (_quad_piece(far, b, 1.0, v, n) - math.log(b))
        total += part - v**n * (b - a)
    return total


def _mp_win_probability(theta, n):
    """Gamma_n(theta) from the same piece integrals of w_v, integrated as
    written by mpmath at 30 digits."""
    total = mpmath.mpf(0)
    with mpmath.workdps(30):
        for a, b, v in theta.pieces():
            a, b, v = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(v)

            def w(t, v=v):
                return ((1 - t + t * v) ** n - t * v**n) / (t * (1 - t))

            def nodes(lo, hi, v=v):
                inner = [] if v >= 1 else [lo + s / (n * (1 - v)) for s in (1, 8, 64)]
                return [lo, *(p for p in inner if lo < p < hi), hi]

            part = mpmath.quad(lambda t, a=a, w=w: w(t) * (t - a), nodes(a, b))
            if b < 1:
                part += (b - a) * mpmath.quad(w, nodes(b, mpmath.mpf(1)))
            total += part - v**n * (b - a)
        return float(total)


@st.composite
def step_thresholds(draw):
    """ThresholdFn with up to twelve pieces and levels in [0, 1]."""
    inner = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=11, unique=True))
    levels = draw(st.lists(st.floats(0.0, 1.0), min_size=len(inner) + 1, max_size=len(inner) + 1))
    return ThresholdFn(sorted(inner) + [1.0], sorted(levels, reverse=True))


@settings(max_examples=150, deadline=None)
@given(step_thresholds(), st.integers(1, 10**4))
@example(robustify(gm_threshold(10, 30), lambda_pair(1.0 / 3.0)), 10**4)
@example(ThresholdFn([0.3, 0.6, 1.0], [1.0, 0.5, 0.0]), 1)
@example(ThresholdFn([1e-300, 1.0], [0.9, 1e-300]), 3)
def test_win_probability_matches_quad_reference(theta, n):
    assert abs(win_probability(theta, n) - _quad_win_probability(theta, n)) <= 1e-10


@pytest.mark.parametrize("n", [3, 10, 200])
def test_win_probability_matches_mpmath(n):
    theta = robustify(gm_threshold(5, 12), lambda_pair(0.25))
    assert abs(win_probability(theta, n) - _mp_win_probability(theta, n)) <= 1e-13


def test_win_probability_large_n_is_fast():
    theta = robustify(gm_threshold(10, 300), lambda_pair(1.0 / 3.0))
    assert len(theta.values) == 98
    start = time.perf_counter()
    value = win_probability(theta, 10**4)
    assert time.perf_counter() - start < 0.2
    assert abs(value - _quad_win_probability(theta, 10**4)) <= 1e-10


def _maxexp_tail_prob(theta, n, y):
    """P[accepted value >= level] for the scan with threshold theta**(1/n).

    y is the n-th power of the level's cdf.  Integrates

        int_y^1 int_{theta^{-1}(q)}^1 int_0^t (1/t)
            (1 - t + t min{theta(s), q}^(1/n))^(n-1) q^(-(n-1)/n) ds dt dq

    with the substitution q = r^n (which removes the q-power singularity).
    The s-integral is an exact sum over the threshold pieces; the t- and
    r-integrals are scipy quad calls, split where the integrands have kinks.
    """
    from scipy import integrate

    r0 = y ** (1.0 / n)
    if r0 >= 1.0:
        return 0.0
    pieces = list(theta.pieces())
    roots = [v ** (1.0 / n) for _, _, v in pieces]

    def j_of_r(r):
        z = generalized_inverse(theta, r**n)
        total = 0.0
        for p, (a, b, _) in enumerate(pieces):
            lo = max(a, z)
            if lo >= b:
                continue

            def f(t, p=p, a=a):
                full = sum((s1 - s0) * (1.0 - t * (1.0 - min(w, r))) ** (n - 1)
                           for (s0, s1, _), w in zip(pieces[:p], roots[:p]))
                return (full + (t - a) * (1.0 - t * (1.0 - min(roots[p], r))) ** (n - 1)) / t

            total += integrate.quad(f, lo, b, epsabs=1e-11)[0]
        return total

    kinks = sorted({r for r in roots if r0 < r < 1.0})
    return n * integrate.quad(j_of_r, r0, 1.0, points=kinks or None, epsabs=1e-10)[0]


def test_maxexp_tail_edges():
    assert _maxexp_tail_prob(dynkin_threshold(0.4), 5, 1.0) == 0.0
    assert _maxexp_tail_prob(ONES, 5, 0.5) == 0.0


def test_maxexp_tail_against_engine():
    theta = robustify(single_threshold(5), lambda_pair(0.25))
    n, y = 5, 0.5
    exact = _maxexp_tail_prob(theta, n, y)
    level = float(UNIT.quantile(y ** (1.0 / n)))
    acc, _ = accepted_value_samples(UNIT, UNIT, powered(theta, 1.0 / n), n, 200_000, 321)
    p = float(np.mean(acc >= level))
    se = math.sqrt(p * (1.0 - p) / len(acc))
    assert abs(exact - p) <= 4.0 * se


def test_consistency_integral_matches_table():
    rng = np.random.default_rng(17)
    for _ in range(20):
        theta = robustify(random_step_threshold(rng), lambda_pair(rng.uniform(0.05, E_INV)))
        table = _LTable(theta)
        for z in [0.0, *theta.breakpoints, *rng.random(5)]:
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
    assert check_consistency_conditions(theta, 0.0, lambda_pair(0.2)) >= 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, E_INV), st.floats(0.0, 1.0))
def test_check_thm11_is_the_band_minimum(seed, beta, alpha):
    # no z in the band has less slack than the result, and a piece end
    # in the band (or lambda2) has exactly that slack
    pair = lambda_pair(beta)
    theta = robustify(random_step_threshold(np.random.default_rng(seed)), pair)
    table = _LTable(theta)

    def slack(z):
        return table.value(z) - alpha * theta.eval(z)

    worst = check_consistency_conditions(theta, alpha, pair)
    dense = np.linspace(pair.lambda1, pair.lambda2, 1001)
    assert worst <= min(slack(z) for z in dense) + 1e-12
    bp = theta.breakpoints
    ends = np.append(bp[(bp >= pair.lambda1) & (bp <= pair.lambda2)], pair.lambda2)
    assert worst == min(slack(z) for z in ends)


def test_check_thm11_full_consistency_unattainable():
    pair = lambda_pair(E_INV)
    theta = robustify(dynkin_threshold(E_INV), pair)
    worst = check_consistency_conditions(theta, 1.0, pair)
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
