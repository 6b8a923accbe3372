"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py``.  Every tolerance is
pinned here; shared expensive artifacts come from session fixtures.

Criterion 4 checks the golden point at beta = 0.01, m = 300 in the terms
the maximal search promises.  The numbers stated for that point, alpha in
[0.688, 0.693] with theta_1 = 1.0165 +- 0.01, cannot both come out of a
search for the feasibility boundary theta_1 = 1: theta_1 is continuous and
decreasing in alpha, so at the returned alpha it lies in
[1, theta_1(alpha - tol)].  The stated pair mixes two operating points.
(0.6908, 1.0165) is solve_steps at the fixed alpha 0.6908, a feasible
interior point that the companion test reproduces; [0.688, 0.693] brackets
the maximum on a coarser grid (0.69033 at m = 100, against 0.69349 at
m = 150 and 0.69657 at m = 300; the drift is first order in 1/m).

Criterion 5 evaluates the same L(z) through _LTable that the recursion
solves, so it checks the solve, not the model.  The independent certificate
is the simulated tail check inside criterion 4: the acceptance rule depends
on quantiles only, so alpha-consistency for every prior is the tail
dominance P[F(accepted)^n >= y] >= alpha (1 - y) for all y.
"""

import os
import time

import numpy as np
import pytest

from stoppred import analytics, engine, hardness, maxexp, thresholds
from stoppred.priors import E_INV, Uniform, lambda_pair, neg_lambda_log

UNIT = Uniform(0.0, 1.0)


def _report(num, name, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status} ({detail}, {time.time() - t0:.1f}s)")
    assert ok, f"criterion {num}: {name}: {detail}"


def test_criterion_01_series_constant():
    t0 = time.time()
    c = analytics.solve_constant_c()
    residual = abs(analytics.c_series(c) - 1.0)
    ok = 0.80430 <= c <= 0.80440 and residual <= 1e-12 and time.time() - t0 < 1.0
    _report(1, "series constant", ok, f"c={c:.6f} residual={residual:.2e}", t0)


def test_criterion_02_lambda_roots():
    t0 = time.time()
    pair = lambda_pair(1.0 / 3.0)
    ok = (
        abs(pair.lambda1 - 0.220) <= 1e-3
        and abs(pair.lambda2 - 0.538) <= 1e-3
        and time.time() - t0 < 1.0
    )
    _report(2, "lambda roots at beta=1/3", ok, f"({pair.lambda1:.4f}, {pair.lambda2:.4f})", t0)


def test_criterion_03_maxprob_endpoints():
    t0 = time.time()
    a0 = analytics.maxprob_alpha(0.0)
    a_peak = analytics.maxprob_alpha(E_INV)
    ok = abs(a0 - 0.5801) <= 5e-4 and abs(a_peak - E_INV) <= 1e-9 and time.time() - t0 < 5.0
    _report(3, "win-probability curve endpoints", ok, f"alpha(0)={a0:.6f} alpha(1/e)={a_peak:.9f}", t0)


# maximum of the m = 300 search at beta = 0.01; the tail check below is the
# evidence that the rule it returns is this consistent
ALPHA_MAX_001 = 0.69657


def test_criterion_04_maxexp_golden_point_as_stated(maxexp_solution_001):
    t0 = time.time()
    tol = 1e-4  # the search tolerance the fixture uses
    alpha, sol = maxexp_solution_001
    theta1 = float(sol.theta_values[0])
    # (a) the golden alpha is feasible at m = 300, so the maximum is not below it
    above_golden = alpha >= 0.6908
    # (b) the search stops within tol of the boundary theta_1 = 1; theta_1
    # falls about 2.8 per unit alpha there, so it ends below 1 + 3 tol;
    # 1.0165 belongs to the fixed alpha 0.6908 (companion test)
    boundary_ok = 1.0 <= theta1 <= 1.0 + 1e-3
    # (c) one bisection step (tol) plus 1e-5 for the rounding of the stated
    # value; the solver's integrals are closed forms, exact to rounding
    value_ok = abs(alpha - ALPHA_MAX_001) <= tol + 1e-5
    # (d) simulated tail dominance of the returned rule at level alpha; the
    # rule's tail ratio is about 0.699, so alpha overstated by 0.006 sits
    # 0.004 above it, about 9.6 se at small y with this many trials
    n, trials = 50, 1_500_000
    theta = sol.threshold().powered(1.0 / n)
    accepted, _ = engine.accepted_value_samples(UNIT, UNIT, theta, n, trials, 401)
    levels = accepted**n
    ys = np.arange(1, 20) / 20.0
    tail = np.array([np.mean(levels >= y) for y in ys])
    se = np.sqrt(tail * (1.0 - tail) / trials)
    slack = tail - (alpha * (1.0 - ys) - 4.0 * se)
    tail_ok = bool(np.all(slack >= 0.0))
    ratio = tail / (1.0 - ys)
    ok = above_golden and boundary_ok and value_ok and tail_ok
    detail = (
        f"alpha*={alpha:.5f} (>= 0.6908, {ALPHA_MAX_001}+-{tol + 1e-5:.1e}) theta1={theta1:.5f} "
        f"(in [1, 1.001]); min P[Y>=y]/(1-y)={ratio.min():.4f}, worst 4se slack {slack.min():+.5f}"
    )
    _report(4, "expectation-objective golden point", ok, detail, t0)


def test_criterion_04_companion_reference_point_reproduced():
    t0 = time.time()
    sol = maxexp.solve_steps(0.6908, 0.01, 300)
    ok = sol.feasible and abs(sol.theta_values[0] - 1.0165) <= 0.01
    _report(
        4, "companion: golden (alpha, theta1) reference pair reproduced", ok,
        f"theta1(alpha=0.6908)={sol.theta_values[0]:.5f}, feasible={sol.feasible}", t0,
    )


def test_criterion_05_condition_check(maxexp_solution_001):
    t0 = time.time()
    alpha, sol = maxexp_solution_001
    worst = analytics.check_consistency_conditions(sol.threshold(), alpha, sol.pair, grid=1000)
    ok = worst >= -1e-6 and time.time() - t0 < 60.0
    _report(5, "sufficient conditions on solved threshold", ok, f"worst residual={worst:.2e}", t0)


def test_criterion_06_robustness_floor():
    t0 = time.time()
    pair = lambda_pair(1.0 / 3.0)
    gm = thresholds.gm_threshold(10, 300)
    adversarial = Uniform(2.0, 3.0)
    rep = engine.simulate(UNIT, adversarial, thresholds.robustify(gm, pair), 10, 100_000, 601)
    floor_ok = rep.maxprob >= 1.0 / 3.0 - 4.0 * rep.maxprob_se
    naked = engine.simulate(UNIT, adversarial, gm, 10, 100_000, 602)
    naked_ok = naked.maxprob <= 0.005
    ok = floor_ok and naked_ok and time.time() - t0 < 60.0
    _report(
        6, "robustness floor under misprediction", ok,
        f"robustified={rep.maxprob:.4f}>=1/3-4se, unrobustified={naked.maxprob:.4f}<=0.005", t0,
    )


def test_criterion_07_dynkin_calibration():
    t0 = time.time()
    details = []
    ok = True
    for lam, seed in ((0.2, 701), (E_INV, 702), (0.6, 703)):
        rep = engine.simulate(UNIT, UNIT, thresholds.dynkin_threshold(lam), 200, 100_000, seed)
        target = neg_lambda_log(lam)
        ok &= abs(rep.maxprob - target) <= 4.0 * rep.maxprob_se
        details.append(f"lam={lam:.3f}: {rep.maxprob:.4f} vs {target:.4f}")
    ok = ok and time.time() - t0 < 120.0
    _report(7, "wait-rule calibration", ok, "; ".join(details), t0)


def test_criterion_08_oracle_matrix(pair_third):
    t0 = time.time()
    trials = 200_000
    wide = Uniform(0.0, 4.0)
    ok = True
    worst = 0.0
    for i, n in enumerate((3, 10)):
        gm = thresholds.gm_threshold(n, 120)
        cases = {
            "dynkin": thresholds.dynkin_threshold(E_INV),
            "gm": gm,
            "robust-gm": thresholds.robustify(gm, pair_third),
        }
        for j, (name, theta) in enumerate(cases.items()):
            exact = analytics.win_probability(theta, n)
            rep = engine.simulate(UNIT, UNIT, theta, n, trials, 800 + 10 * i + j)
            dev = abs(rep.maxprob - exact) / max(rep.maxprob_se, 1e-12)
            ok &= dev <= 4.0
            worst = max(worst, dev)
            values = np.linspace(0.4, 3.6, n)
            formula = analytics.googol_win_formula(np.asarray(wide.cdf(values)), theta)
            mc, se = engine.googol_win_mc(values, wide, theta, trials, 900 + 10 * i + j)
            dev = abs(formula - mc) / max(se, 1e-12)
            ok &= dev <= 4.0
            worst = max(worst, dev)
    ok = ok and time.time() - t0 < 300.0
    _report(8, "formula vs simulation matrix", ok, f"worst deviation {worst:.2f} se (12 checks)", t0)


def test_criterion_09_monotone_consistency(pair_third):
    t0 = time.time()
    alpha_limit = analytics.maxprob_alpha(1.0 / 3.0)
    values = []
    for n in range(2, 51):
        theta = thresholds.robustify(thresholds.gm_threshold(n, 300), pair_third)
        values.append(analytics.win_probability(theta, n))
    values = np.array(values)
    mono = bool(np.all(np.diff(values) <= 1e-9))
    above = bool(np.all(values >= alpha_limit - 1e-3))
    ok = mono and above and time.time() - t0 < 120.0
    _report(
        9, "win probability non-increasing in n", ok,
        f"monotone={mono}, min={values.min():.5f} vs limit {alpha_limit:.5f}", t0,
    )


def test_criterion_09_large_n_simulation(pair_third):
    # companion: the simulated win probability at n = 1e4 (against the exact
    # finite-n value) and at n = 1e6 (against the continuum limit).  Only
    # record rows run n = 1e6: one 4096-row batch of full rows would need
    # 33 GB.
    t0 = time.time()
    alpha_limit = analytics.maxprob_alpha(1.0 / 3.0)
    ok = True
    details = []
    for n, seed in ((10_000, 1501), (1_000_000, 1502)):
        theta = thresholds.robustify(thresholds.gm_threshold(n, 300), pair_third)
        target = analytics.win_probability(theta, n) if n == 10_000 else alpha_limit
        rep = engine.simulate(UNIT, UNIT, theta, n, 200_000, seed)
        dev = (rep.maxprob - target) / rep.maxprob_se
        ok &= abs(dev) <= 4.0
        details.append(f"n={n}: {rep.maxprob:.5f} vs {target:.6f} ({dev:+.2f} se)")
    ok = ok and time.time() - t0 < 60.0
    _report(9, "companion: simulated win probability at large n", ok, "; ".join(details), t0)


def test_criterion_10_sharding_dominance():
    t0 = time.time()
    results = []
    for n, k, seed in ((5, 3, 1001), (8, 4, 1002)):
        theta = thresholds.gm_threshold(n, 80)
        results.append(engine.simulate_coupled_sharding(UNIT, UNIT, theta, n, k, 10_000, seed))
    ok = all(v == 0 for v in results) and time.time() - t0 < 60.0
    _report(10, "sharding dominance coupling", ok, f"violations={results}", t0)


def test_criterion_11_lp_soundness():
    t0 = time.time()
    rng = np.random.default_rng(1100)
    worst = 0.0
    count = 0
    for n, K in ((2, 2), (3, 3), (4, 3)):
        prior = hardness.harmonic_prior(K)
        model = hardness.build_polytope(n, K, prior)
        for _ in range(34 if (n, K) != (4, 3) else 32):
            acc = hardness.random_rule(n, K, rng)
            rej = hardness.acc_to_rej(acc, prior)
            exprs = hardness.win_prob_by_truncation(rej, prior)
            for k in range(1, K + 1):
                gap = abs(hardness.brute_force_win_prob(acc, prior, k) - exprs[k - 1])
                worst = max(worst, gap)
            x = hardness.rule_solution_vector(model, rej)
            worst = max(worst, float(np.max(model.a_ub @ x - model.b_ub)))
            count += 1
    # reject-all point at (alpha, beta) = (0, 0)
    prior = hardness.harmonic_prior(3)
    model = hardness.build_polytope(3, 3, prior)
    x = hardness.rule_solution_vector(model, np.ones((3, 3)))
    reject_all_ok = (
        np.max(model.a_ub @ x - model.b_ub) <= 1e-12
        and abs(x[-2]) <= 1e-12
        and abs(x[-1]) <= 1e-12
    )
    ok = worst <= 1e-9 and reject_all_ok and count == 100 and time.time() - t0 < 60.0
    _report(11, "LP soundness vs enumeration", ok, f"{count} rules, worst gap {worst:.2e}", t0)


def test_criterion_12_lp_frontier():
    t0 = time.time()
    prior = hardness.harmonic_prior(64)
    points = hardness.frontier_sweep(10, 64, prior, np.linspace(0.0, 1.0, 21))
    vals = np.array([p.lp_star for p in points])
    no_gaps = not np.any(np.isnan(vals))
    second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    convex = float(np.min(second)) >= -1e-7
    ends_ok = vals[-1] >= 0.5801 and vals[0] >= 0.3679
    golden_ok = (
        abs(vals[-1] - 0.617813233) <= 1e-6
        and abs(vals[10] - 0.519500825) <= 1e-6
        and abs(vals[0] - 0.509069691) <= 1e-6
    )
    ok = no_gaps and convex and ends_ok and golden_ok and time.time() - t0 < 600.0
    _report(
        12, "hardness frontier at (10, 64)", ok,
        f"LP*(1)={vals[-1]:.6f} LP*(0)={vals[0]:.6f} min curvature {np.min(second):.1e}", t0,
    )


@pytest.mark.skipif(not os.environ.get("STOPPRED_RUN_SLOW"), reason="full-scale reproduction; set STOPPRED_RUN_SLOW=1 (about 3 min)")
def test_criterion_13_full_scale_exclusion():
    t0 = time.time()
    prior = hardness.harmonic_prior(1024)
    model = hardness.build_polytope(30, 1024, prior)
    sol = hardness.solve_lp(model, 0.5)
    best_of_both = 0.5 * 0.5801 + 0.5 * 0.3679
    ok = best_of_both > sol.objective
    _report(13, "full-scale exclusion", ok, f"LP*(0.5)={sol.objective:.6f} < {best_of_both:.6f}", t0)


def test_criterion_14_baselines_not_reproduced():
    t0 = time.time()
    # scope statement: the 0.745 expectation optimum and the 0.688/0.723
    # random-order bounds are cited context only; nothing in the package
    # computes them
    names = [n.lower() for n in dir(analytics) + dir(maxexp) + dir(engine)]
    ok = not any("hill" in n or "kertz" in n or "prophet" in n for n in names)
    _report(14, "out-of-scope baselines stay out", ok, "no baseline reimplementations exported", t0)
