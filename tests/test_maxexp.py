import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stoppred import maxexp
from stoppred.analytics import _LTable, check_consistency_conditions
from stoppred.maxexp import max_alpha_for_beta, solve_steps, tradeoff_curve_maxexp
from stoppred.priors import E_INV

from reference import unclamped_threshold


def test_reference_operating_point():
    # beta = 0.01, m = 300 at the fixed consistency 0.6908 reproduces the
    # golden first step value 1.0165 and is feasible (an interior point: the
    # boundary theta_1 = 1 lies at a larger alpha)
    sol = solve_steps(0.6908, 0.01, 300)
    assert sol.feasible
    assert sol.theta_values[0] == pytest.approx(1.0165, abs=0.01)
    assert np.all(np.diff(sol.theta_values) <= 1e-9)


def test_degenerate_band_at_peak():
    sol = solve_steps(0.30, E_INV, 50)
    assert sol.feasible and len(sol.theta_values) == 0
    sol = solve_steps(0.40, E_INV, 50)
    assert not sol.feasible
    alpha, _ = max_alpha_for_beta(E_INV, 50)
    assert alpha == pytest.approx(E_INV, abs=1e-12)


def test_validation():
    with pytest.raises(ValueError):
        solve_steps(0.5, 0.0, 50)
    with pytest.raises(ValueError):
        solve_steps(-0.1, 0.2, 50)
    with pytest.raises(ValueError):
        solve_steps(0.5, 0.2, 1)



def test_a_rise_the_threshold_rejects_fails_the_solve(monkeypatch):
    # solve_steps accepts no rise among the steps that ThresholdFn would reject
    real = maxexp._piece_equation
    steps = []

    def rising(*args):
        # the second step solved, theta_{m-1}, comes out 1e-10 below theta_m
        theta = steps[0] - 1e-10 if len(steps) == 1 else real(*args)
        steps.append(theta)
        return theta

    monkeypatch.setattr(maxexp, "_piece_equation", rising)
    with pytest.raises(ArithmeticError, match="non-increasing"):
        solve_steps(0.62, 0.15, 60)


# below about 1e-12 lambda2 rounds to 1, where the recursion has no start
@settings(max_examples=40, deadline=None)
@given(
    st.floats(math.log(1e-11), -1.0).map(math.exp).filter(lambda beta: beta < E_INV),
    st.integers(2, 300),
)
@example(1e-11, 300)
@example(0.3678, 2)
def test_solved_levels_never_rise(beta, m):
    # ThresholdFn refuses any rise, so every rule the alpha search returns must have none
    _, sol = max_alpha_for_beta(beta, m)
    assert np.all(np.diff(sol.theta_values) <= 0.0)
    sol.threshold()


def test_endpoint_equalities_hold():
    sol = solve_steps(0.62, 0.15, 60)
    table = _LTable(unclamped_threshold(sol))
    z = sol.grid
    worst = max(
        abs(table.value(z[i + 1]) - sol.alpha * sol.theta_values[i]) for i in range(sol.m)
    )
    assert worst <= 1e-8


def test_l_is_nonincreasing_on_grid():
    sol = solve_steps(0.62, 0.15, 60)
    table = _LTable(unclamped_threshold(sol))
    z = sol.grid
    values = [table.value(zi) for zi in z[1:]]
    assert np.all(np.diff(values) <= 1e-10)


def test_solution_threshold_passes_condition_check(maxexp_solution_001):
    alpha, sol = maxexp_solution_001
    worst = check_consistency_conditions(sol.threshold(), alpha, sol.pair)
    assert worst >= -1e-6


def test_alpha_search_monotone_bracket(maxexp_solution_001):
    alpha, sol = maxexp_solution_001
    assert sol.feasible
    assert sol.theta_values[0] >= 1.0
    # the located alpha is the boundary theta_1 = 1 to within 1e-9
    assert not solve_steps(alpha + 1e-9, 0.01, 300).feasible


@pytest.mark.parametrize(
    "beta, m, root",
    [(0.01, 40, 0.6762077461512), (0.3, 40, 0.5953540157733)],
)
def test_boundary_search_solves_few_passes(monkeypatch, beta, m, root):
    # the Brent root takes 10 recursion passes here; a width-1e-4 bisection took 15
    calls = []

    def counted(*args):
        calls.append(args)
        return solve_steps(*args)

    monkeypatch.setattr("stoppred.maxexp.solve_steps", counted)
    alpha, sol = max_alpha_for_beta(beta, m)
    assert len(calls) <= 12
    assert alpha == pytest.approx(root, abs=1e-12)
    assert sol.feasible and not solve_steps(alpha + 1e-9, beta, m).feasible


def test_grid_refinement_stability(maxexp_solution_001):
    # measured drift between m = 150 and m = 300 is 0.0031: the endpoint
    # scheme certifies slightly more on finer grids (first order in 1/m)
    a150, _ = max_alpha_for_beta(0.01, 150)
    a300, _ = maxexp_solution_001
    assert abs(a150 - a300) <= 0.004


def test_steps_below_the_floor_are_floored():
    # at beta = 0.001 the last step's root lies below exp(-700), where the
    # log-space solve floors it; the certificate still holds
    alpha, sol = max_alpha_for_beta(0.001, 10)
    assert alpha == pytest.approx(0.60682699314852, abs=1e-9)
    assert sol.theta_values[-1] == math.exp(maxexp._LOG_FLOOR)
    assert np.all(np.diff(sol.theta_values) <= 0.0)
    assert check_consistency_conditions(sol.threshold(), alpha, sol.pair) >= -1e-6


# frozen on first verified run (condition check passed at 1e-6)
ALPHA_QUARTER_GOLDEN = 0.63667


def test_golden_quarter_point():
    alpha, sol = max_alpha_for_beta(0.25, 300)
    assert alpha == pytest.approx(ALPHA_QUARTER_GOLDEN, abs=2e-3)
    assert check_consistency_conditions(sol.threshold(), alpha, sol.pair) >= -1e-6


def test_curve_beats_linear_interpolation():
    # mixing the full-information rule (0.745 at robustness 0) with the
    # wait-until-1/e rule only achieves the connecting segment
    alpha, _ = max_alpha_for_beta(0.1, 150)
    segment = 0.745 + (E_INV - 0.745) * (0.1 / E_INV)
    assert alpha > segment + 0.02


def test_curve_nonincreasing_and_gap_handling():
    points = tradeoff_curve_maxexp([0.0, 0.2, E_INV], 80)
    assert points[0].alpha is None and points[0].error
    assert points[1].alpha is not None
    assert points[2].alpha == pytest.approx(E_INV, abs=1e-9)
    assert points[1].alpha >= points[2].alpha - 1e-6
