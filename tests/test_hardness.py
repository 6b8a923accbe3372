import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse
from scipy.optimize import linprog

from stoppred import hardness
from stoppred.hardness import (
    LpError,
    acc_to_rej,
    brute_force_win_prob,
    build_polytope,
    delta_table,
    export_lp,
    frontier_sweep,
    harmonic_prior,
    parse_lp,
    random_rule,
    rej_to_acc,
    rule_solution_vector,
    solve_lp,
    win_prob_by_truncation,
)

DESK_SIZES = [(2, 2), (3, 3), (4, 3)]


def test_harmonic_prior_examples():
    assert harmonic_prior(1).pmf.tolist() == [1.0]
    assert np.allclose(harmonic_prior(2).pmf, [2.0 / 3.0, 1.0 / 3.0])
    big = harmonic_prior(1024)
    ratio = big.pmf * np.arange(1, 1025)
    assert np.allclose(ratio, ratio[0])


def test_delta_telescoping():
    prior = harmonic_prior(64)
    n = 10
    delta = delta_table(prior, n)
    F = np.cumsum(prior.pmf)
    F[-1] = 1.0
    for t in range(1, n + 1):
        assert np.max(np.abs(np.cumsum(delta[t]) - F**t)) <= 1e-12
    assert np.all(delta >= 0.0)
    assert delta[0].tolist() == [1.0] + [0.0] * 63


def test_oracle_equivalence_random_rules():
    # the constraint-row expressions evaluated at a rule's rejection table
    # must equal exhaustive enumeration, for every truncation level
    rng = np.random.default_rng(2024)
    for n, K in DESK_SIZES:
        prior = harmonic_prior(K)
        for _ in range(34):
            acc = random_rule(n, K, rng)
            rej = acc_to_rej(acc, prior)
            exprs = win_prob_by_truncation(rej, prior)
            for k in range(1, K + 1):
                assert abs(brute_force_win_prob(acc, prior, k) - exprs[k - 1]) <= 1e-9


def test_random_rules_are_feasible():
    rng = np.random.default_rng(77)
    for n, K in DESK_SIZES:
        prior = harmonic_prior(K)
        model = build_polytope(n, K, prior)
        for _ in range(10):
            rej = acc_to_rej(random_rule(n, K, rng), prior)
            x = rule_solution_vector(model, rej)
            assert np.max(model.a_ub @ x - model.b_ub) <= 1e-9
            assert np.max(np.abs(model.a_eq @ x - model.b_eq)) <= 1e-9


def test_reject_all_point():
    prior = harmonic_prior(3)
    model = build_polytope(3, 3, prior)
    rej = np.ones((3, 3))
    exprs = win_prob_by_truncation(rej, prior)
    assert np.max(np.abs(exprs)) <= 1e-14  # acceptance terms telescope away
    x = rule_solution_vector(model, rej)
    assert np.max(model.a_ub @ x - model.b_ub) <= 1e-12
    assert np.max(np.abs(model.a_eq @ x - model.b_eq)) <= 1e-12


def test_acc_rej_conversions():
    prior = harmonic_prior(3)
    n = 4
    rej = acc_to_rej(np.zeros((n, 3)), prior)
    assert np.allclose(rej, 1.0, atol=1e-14)  # never accept
    rng = np.random.default_rng(8)
    acc = random_rule(n, 3, rng)
    back = rej_to_acc(acc_to_rej(acc, prior), prior)
    assert np.max(np.abs(back - acc)) <= 1e-12


_WEIGHT = st.floats(0.05, 1.0)


@st.composite
def _rules(draw, zero_masses):
    """(acc, pmf): an acceptance table over a generated pmf, which may hold zero masses."""
    n = draw(st.integers(1, 6), label="n")
    weight = st.one_of(st.just(0.0), _WEIGHT) if zero_masses else _WEIGHT
    weights = draw(st.lists(weight, min_size=1, max_size=6).filter(any), label="weights")
    pmf = np.array(weights) / np.sum(weights)
    edge = st.sampled_from([0.0, 1.0, 1e-12, 1.0 - 1e-12])
    acc = draw(arrays(np.float64, (n, len(pmf)), elements=st.one_of(st.floats(0.0, 1.0), edge)), label="acc")
    return acc, pmf


@settings(max_examples=200, deadline=None)
@given(rule=_rules(zero_masses=True))
def test_rej_to_acc_inverts_acc_to_rej(rule):
    acc, pmf = rule
    rej = acc_to_rej(acc, pmf)
    back = rej_to_acc(rej, pmf)
    # arrival mass at (t, l): the rule sees a best-so-far l at step t with its
    # earlier steps all rejected; the inverse recovers the table only there
    delta = delta_table(pmf, len(acc))
    prev = np.vstack((np.ones(len(pmf)), rej[:-1]))
    arrivals = pmf * np.cumsum(delta[:-1] * prev, axis=1)
    live = arrivals > 0.0
    # 1 - acc is (rej delta^t - the mass already rejected) / arrivals; both
    # terms are below F(l)^t and carry its rounding (delta^t cancels, and rej
    # is clipped to 1), which comes back divided by the arrivals
    Ft = np.cumsum(pmf) ** np.arange(1, len(acc) + 1)[:, None]
    scale = 1.0 + Ft / np.where(live, arrivals, 1.0)
    assert np.all(np.abs(back - acc)[live] <= 16 * np.finfo(float).eps * scale[live])


@settings(max_examples=100, deadline=None)
@given(rule=_rules(zero_masses=False))
def test_win_prob_by_truncation_matches_enumeration(rule):
    acc, pmf = rule
    n, K = acc.shape
    exprs = win_prob_by_truncation(acc_to_rej(acc, pmf), pmf)
    F = np.cumsum(pmf)
    for k in range(1, K + 1):
        if k**n > 10**4:
            break
        # the expression divides a sum of terms below 1 by F(k)^n
        tol = 64 * n * K * np.finfo(float).eps / F[k - 1] ** n
        assert abs(exprs[k - 1] - brute_force_win_prob(acc, pmf, k)) <= tol


def _enumerated_rej(acc, pmf):
    """P[no acceptance through t | running max = l] by exhaustive enumeration."""
    n, K = acc.shape
    out = np.zeros((n, K))
    mass = np.zeros((n, K))
    for flat in range(K**n):
        seq = []
        rest = flat
        for _ in range(n):
            seq.append(rest % K + 1)
            rest //= K
        p = np.prod([pmf[x - 1] for x in seq])
        survive = 1.0
        running = 0
        for t, x in enumerate(seq):
            if x >= running:
                survive *= 1.0 - acc[t, x - 1]
                running = x
            out[t, running - 1] += p * survive
            mass[t, running - 1] += p
    return out / mass


def test_conversion_against_enumeration():
    prior = harmonic_prior(2)
    # accept-all: the first step always fires, so nothing ever survives
    ones = np.ones((2, 2))
    assert np.max(np.abs(acc_to_rej(ones, prior.pmf) - _enumerated_rej(ones, prior.pmf))) <= 1e-12
    assert np.max(np.abs(acc_to_rej(ones, prior.pmf))) <= 1e-12
    rng = np.random.default_rng(12)
    for n, K in [(2, 2), (3, 3)]:
        prior = harmonic_prior(K)
        acc = random_rule(n, K, rng)
        assert np.max(np.abs(acc_to_rej(acc, prior) - _enumerated_rej(acc, prior.pmf))) <= 1e-12


def test_brute_force_budget_and_single_step():
    prior = harmonic_prior(4)
    acc = np.full((1, 4), 0.5)
    expect = float(np.sum(prior.pmf * 0.5))
    assert brute_force_win_prob(acc, prior, 4) == pytest.approx(expect, abs=1e-12)
    assert brute_force_win_prob(np.zeros((3, 4)), prior, 4) == 0.0
    with pytest.raises(ValueError):
        brute_force_win_prob(np.full((12, 4), 0.5), prior, 4)


def test_single_value_model_optimum():
    sol = solve_lp(build_polytope(1, 1, harmonic_prior(1)), 0.5)
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.alpha == pytest.approx(1.0, abs=1e-9)
    assert sol.beta == pytest.approx(1.0, abs=1e-9)
    assert sol.y[0, 0] == pytest.approx(0.0, abs=1e-9)


def test_solve_deterministic():
    model = build_polytope(4, 8, harmonic_prior(8))
    a = solve_lp(model, 0.7)
    b = solve_lp(model, 0.7)
    assert a.objective == b.objective
    assert np.array_equal(a.y, b.y)


# frozen regression values at (n, K) = (10, 64), harmonic prior
LP_GOLDEN = {1.0: 0.617813233, 0.5: 0.519500825, 0.0: 0.509069691}


@pytest.fixture(scope="module")
def desk_model():
    return build_polytope(10, 64, harmonic_prior(64))


def test_lp_star_bounds_and_goldens(desk_model):
    for lam, expect in LP_GOLDEN.items():
        sol = solve_lp(desk_model, lam)
        assert sol.objective == pytest.approx(expect, abs=1e-6)
    assert solve_lp(desk_model, 1.0).objective >= 0.5801
    assert solve_lp(desk_model, 0.0).objective >= 0.3679


def test_frontier_convex(desk_model):
    lambdas = np.linspace(0.0, 1.0, 21)
    points = frontier_sweep(10, 64, harmonic_prior(64), lambdas)
    vals = np.array([p.lp_star for p in points])
    assert not np.any(np.isnan(vals))
    # pointwise max of linear functions: second differences non-negative
    second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    assert np.min(second) >= -1e-7


def _scipy_csr(a):
    return sparse.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)


def _cold_linprog(model, lam):
    """Independent reference: scipy's linprog from scratch on the same model."""
    c = np.zeros(model.num_vars)
    c[model.col_names.index("alpha")] = -lam
    c[model.col_names.index("beta")] = -(1.0 - lam)
    return linprog(
        c,
        A_ub=_scipy_csr(model.a_ub),
        b_ub=model.b_ub,
        A_eq=_scipy_csr(model.a_eq),
        b_eq=model.b_eq,
        bounds=model.bounds,
        method="highs",
    )


def test_solve_lp_matches_linprog_bitwise(desk_model):
    for lam in (0.0, 0.5, 1.0):
        res = _cold_linprog(desk_model, lam)
        sol = solve_lp(desk_model, lam)
        assert sol.objective == -res.fun
        assert np.array_equal(sol.y, res.x[: desk_model.n * desk_model.K].reshape(desk_model.n, desk_model.K))


_SWEEP_LAMBDA = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 4),
    weights=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=8),
    lambdas=st.one_of(st.lists(_SWEEP_LAMBDA, min_size=1, max_size=6), _SWEEP_LAMBDA.map(lambda lam: [lam])),
)
def test_frontier_sweep_matches_cold_solves(n, weights, lambdas):
    K = len(weights)
    pmf = np.array(weights) / np.sum(weights)
    points = frontier_sweep(n, K, pmf, lambdas)
    assert [p.lam for p in points] == lambdas
    model = build_polytope(n, K, pmf)
    for p in points:
        assert p.error is None
        assert abs(p.lp_star - -_cold_linprog(model, p.lam).fun) <= 1e-7
        assert abs(p.lam * p.alpha_star + (1.0 - p.lam) * p.beta_star - p.lp_star) <= 1e-6


def test_frontier_sweep_checks_lambdas_before_solving(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the sweep built or solved before checking its lambdas")

    monkeypatch.setattr(hardness, "build_polytope", never)
    monkeypatch.setattr(hardness, "_solve_lambdas", never)
    for lambdas in ([0.5, 1.5], [-0.1], [0.0, float("nan")]):
        with pytest.raises(ValueError, match="lambda weight"):
            frontier_sweep(3, 3, harmonic_prior(3), lambdas)


def _infeasible_model(model):
    # pdef_1_1 reads p_1_1 = D[1, 1] y_1_1 = y_1_1 <= 1; a right-hand side of 5 forces p > 1
    b_eq = model.b_eq.copy()
    b_eq[model.row_names_eq.index("pdef_1_1")] = 5.0
    return replace(model, b_eq=b_eq)


def _unbounded_model(model):
    # without the consistency row alpha <= b_K, alpha is free
    b_ub = model.b_ub.copy()
    b_ub[model.row_names_ub.index("cons")] = np.inf
    return replace(model, b_ub=b_ub)


def test_solve_lp_maps_highs_status(desk_model):
    with pytest.raises(LpError, match="^LP reported infeasible; the reject-all table is always feasible"):
        solve_lp(_infeasible_model(desk_model), 1.0)
    with pytest.raises(LpError, match="^LP reported unbounded; alpha and beta are bounded by 1"):
        solve_lp(_unbounded_model(desk_model), 1.0)


def test_failed_lambda_leaves_the_sweep_going(desk_model):
    # at lambda = 0 alpha has no cost, so dropping its row changes nothing
    failed, solved = hardness._solve_lambdas(_unbounded_model(desk_model), [1.0, 0.0])
    assert isinstance(failed, LpError) and "unbounded" in str(failed)
    assert solved.objective == pytest.approx(LP_GOLDEN[0.0], abs=1e-6)


def test_export_parse_roundtrip():
    for n, K in [(2, 2), (3, 2)]:
        model = build_polytope(n, K, harmonic_prior(K))
        parsed = parse_lp(export_lp(model, 0.3))
        assert parsed["objective"] == {"alpha": 0.3, "beta": 0.7}
        dense_ub = model.a_ub.toarray()
        dense_eq = model.a_eq.toarray()
        name_to_col = {name: j for j, name in enumerate(model.col_names)}
        for i, row_name in enumerate(model.row_names_ub):
            terms, sense, rhs = parsed["rows"][row_name]
            assert sense == "<="
            assert rhs == model.b_ub[i]
            rebuilt = np.zeros(model.num_vars)
            for var, coef in terms.items():
                rebuilt[name_to_col[var]] = coef
            assert np.array_equal(rebuilt, dense_ub[i])
        for i, row_name in enumerate(model.row_names_eq):
            terms, sense, rhs = parsed["rows"][row_name]
            assert sense == "="
            assert rhs == model.b_eq[i]
            rebuilt = np.zeros(model.num_vars)
            for var, coef in terms.items():
                rebuilt[name_to_col[var]] = coef
            assert np.array_equal(rebuilt, dense_eq[i])
        for name, (lo, hi) in zip(model.col_names, model.bounds):
            assert parsed["bounds"][name] == (lo, hi)


def test_export_small_model_is_compact():
    text = export_lp(build_polytope(1, 1, harmonic_prior(1)), 0.5)
    assert text.splitlines()[0] == "Maximize"
    assert text.splitlines()[-1] == "End"
    assert len(text.splitlines()) <= 16


def _loop_polytope(n, K, pmf):
    """Reference assembly of build_polytope, one constraint entry at a time.

    build_polytope must reproduce it bit for bit, explicit and negative
    zeros included (test_build_polytope_matches_the_loops).
    """
    F = np.cumsum(pmf)
    F[-1] = 1.0
    Fm1 = np.concatenate(([0.0], F[:-1]))
    ratio = Fm1 / F  # F(l-1)/F(l), zero at l = 1
    # D[t, l] = Delta^t(l) / F(l)^t = 1 - ratio^t, with D[0, l] = 1{l = 1}
    D = np.zeros((n + 1, K))
    D[0, 0] = 1.0
    with np.errstate(divide="ignore"):
        logratio = np.where(ratio > 0.0, np.log(np.maximum(ratio, 1e-300)), -np.inf)
    for t in range(1, n + 1):
        D[t] = -np.expm1(t * logratio)
    hazard = pmf / F  # f(l)/F(l) = D[1, l]

    def iy(t, l):  # t in 1..n, l in 1..K
        return (t - 1) * K + (l - 1)

    def ip(t, l):  # t in 1..n-1
        return n * K + (t - 1) * K + (l - 1)

    def iv(l):
        return (2 * n - 1) * K + (l - 1)

    def ib(l):
        return 2 * n * K + (l - 1)

    ialpha = (2 * n + 1) * K
    ibeta = ialpha + 1
    nvars = ibeta + 1

    col_names = (
        [f"y_{t}_{l}" for t in range(1, n + 1) for l in range(1, K + 1)]
        + [f"p_{t}_{l}" for t in range(1, n) for l in range(1, K + 1)]
        + [f"v_{l}" for l in range(1, K + 1)]
        + [f"b_{l}" for l in range(1, K + 1)]
        + ["alpha", "beta"]
    )

    eq_rows, eq_cols, eq_vals, b_eq, row_names_eq = [], [], [], [], []
    ub_rows, ub_cols, ub_vals, b_ub, row_names_ub = [], [], [], [], []

    def eq_add(row, cols, vals, rhs, name):
        eq_rows.extend([row] * len(cols))
        eq_cols.extend(cols)
        eq_vals.extend(vals)
        b_eq.append(rhs)
        row_names_eq.append(name)

    def ub_add(row, cols, vals, rhs, name):
        ub_rows.extend([row] * len(cols))
        ub_cols.extend(cols)
        ub_vals.extend(vals)
        b_ub.append(rhs)
        row_names_ub.append(name)

    r = 0
    for t in range(1, n):
        for l in range(1, K + 1):
            # p_{t,l} = ratio_l^t p_{t,l-1} + D[t,l] y_{t,l}
            cols = [ip(t, l), iy(t, l)]
            vals = [1.0, -D[t, l - 1]]
            if l > 1:
                cols.append(ip(t, l - 1))
                vals.append(-(ratio[l - 1] ** t))
            eq_add(r, cols, vals, 0.0, f"pdef_{t}_{l}")
            r += 1
    for l in range(1, K + 1):
        # v_l = sum_t [hazard_l p_{t-1,l} + D[t-1,l] ratio_l y_{t-1,l} - D[t,l] y_{t,l}]
        cols, vals = [iv(l)], [1.0]
        for tau in range(1, n + 1):
            coef = D[tau, l - 1]
            if tau <= n - 1:
                coef -= D[tau, l - 1] * ratio[l - 1]
                cols.append(ip(tau, l))
                vals.append(-hazard[l - 1])
            cols.append(iy(tau, l))
            vals.append(coef)
        rhs = hazard[l - 1]  # t = 1 terms with p_{0,l} = 1
        eq_add(r, cols, vals, rhs, f"vdef_{l}")
        r += 1
    for l in range(1, K + 1):
        # b_l = ratio_l^n b_{l-1} + v_l
        cols, vals = [ib(l), iv(l)], [1.0, -1.0]
        if l > 1:
            cols.append(ib(l - 1))
            vals.append(-(ratio[l - 1] ** n))
        eq_add(r, cols, vals, 0.0, f"bdef_{l}")
        r += 1

    r = 0
    for t in range(1, n + 1):
        for l in range(1, K + 1):
            cols = [iy(t, l)]
            vals = [-D[t, l - 1]]
            if t > 1:
                cols.append(iy(t - 1, l))
                vals.append(D[t - 1, l - 1] * ratio[l - 1])
            ub_add(r, cols, vals, 0.0, f"slo_{t}_{l}")
            r += 1
    for t in range(1, n + 1):
        for l in range(1, K + 1):
            cols = [iy(t, l)]
            vals = [D[t, l - 1]]
            rhs = 0.0
            if t > 1:
                cols.extend([iy(t - 1, l), ip(t - 1, l)])
                vals.extend([-D[t - 1, l - 1] * ratio[l - 1], -hazard[l - 1]])
            else:
                rhs = hazard[l - 1]  # p_{0,l} = 1
            ub_add(r, cols, vals, rhs, f"sup_{t}_{l}")
            r += 1
    ub_add(r, [ialpha, ib(K)], [1.0, -1.0], 0.0, "cons")
    r += 1
    for k in range(1, K + 1):
        ub_add(r, [ibeta, ib(k)], [1.0, -1.0], 0.0, f"rob_{k}")
        r += 1

    bounds = (
        [(0.0, 1.0)] * (n * K)
        + [(0.0, 1.0)] * ((n - 1) * K)
        + [(None, None)] * (2 * K)
        + [(None, None), (None, None)]
    )
    a_eq = sparse.coo_matrix((eq_vals, (eq_rows, eq_cols)), shape=(len(b_eq), nvars)).tocsr()
    a_ub = sparse.coo_matrix((ub_vals, (ub_rows, ub_cols)), shape=(len(b_ub), nvars)).tocsr()
    return hardness.PolytopeModel(
        n=n,
        K=K,
        pmf=pmf,
        a_ub=a_ub,
        b_ub=np.asarray(b_ub),
        a_eq=a_eq,
        b_eq=np.asarray(b_eq),
        bounds=bounds,
        col_names=col_names,
        row_names_ub=row_names_ub,
        row_names_eq=row_names_eq,
    )


def _bits(a):
    return str(a.dtype), a.shape, a.tobytes()


def _assert_same_model(got, want):
    for name in ("a_ub", "a_eq"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape
        for part in ("indptr", "indices", "data"):
            assert _bits(getattr(a, part)) == _bits(getattr(b, part)), (name, part)
    for name in ("b_ub", "b_eq"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    for name in ("bounds", "col_names", "row_names_ub", "row_names_eq"):
        assert getattr(got, name) == getattr(want, name), name


# masses from ordinary down to ones so small that F(l) = F(l-1) in doubles,
# which makes zero (and negative-zero) coefficients
_MASS = st.one_of(st.floats(0.05, 1.0), st.floats(1e-300, 1e-12), st.sampled_from([1e-300, 1e-17]))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 6), weights=st.lists(_MASS, min_size=1, max_size=12))
@example(n=15, weights=(1.0 / np.arange(1, 129)).tolist())  # the benchmark's frontier model
def test_build_polytope_matches_the_loops(n, weights):
    pmf = np.array(weights) / np.sum(weights)
    K = len(pmf)
    _assert_same_model(build_polytope(n, K, pmf), _loop_polytope(n, K, pmf))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 6), weights=st.lists(_MASS, min_size=1, max_size=12), data=st.data())
@example(n=15, weights=(1.0 / np.arange(1, 129)).tolist(), data=None)
def test_csr_matches_scipy(n, weights, data):
    pmf = np.array(weights) / np.sum(weights)
    model = build_polytope(n, len(pmf), pmf)
    for a in (model.a_ub, model.a_eq):
        ref = _scipy_csr(a)
        assert a.nnz == ref.nnz
        assert np.array_equal(a.toarray(), ref.toarray())
        if data is None:
            x = np.linspace(-1.0, 1.0, a.shape[1])
        else:
            x = data.draw(arrays(np.float64, a.shape[1], elements=st.floats(-1e3, 1e3)), label="x")
        # the same sums in the same order; a fused multiply-add may round them differently
        bound = 4 * np.finfo(float).eps * (abs(ref) @ np.abs(x))
        assert np.all(np.abs(a @ x - ref @ x) <= bound)
    start, index, value = hardness._colwise(model)
    want = sparse.vstack((_scipy_csr(model.a_ub), _scipy_csr(model.a_eq))).tocsc()
    assert _bits(start) == _bits(want.indptr)
    assert _bits(index) == _bits(want.indices)
    assert _bits(value) == _bits(want.data)


# sha256 of export_lp on an irregular instance, recorded from the loop
# formatter: a mass of 1e-290 gives all-zero rows ("0 y_1_3") and -0 entries
EXPORT_GOLDEN = "1d700fbc1daf15f9314b838b1533acf3ae2ee72820f0fb3124db458686e9a2c3"


def test_export_golden():
    w = np.array([5.0, 2.0, 1e-290, 2.5, 0.5, 3.0])
    text = export_lp(build_polytope(4, 6, w / w.sum()), 0.3)
    assert " slo_2_3: 0 y_1_3 <= 0\n" in text
    assert hashlib.sha256(text.encode()).hexdigest() == EXPORT_GOLDEN


def test_build_validates():
    with pytest.raises(ValueError):
        build_polytope(0, 3, harmonic_prior(3))
    with pytest.raises(ValueError):
        build_polytope(2, 3, np.array([0.5, 0.5, 0.0]))


def test_lambda_is_checked_where_it_is_used():
    model = build_polytope(2, 3, harmonic_prior(3))
    for lam in (1.5, -0.1, float("nan")):
        for use in (
            lambda: solve_lp(model, lam),
            lambda: export_lp(model, lam),
            lambda: hardness.export_lp_objective(lam),
            lambda: frontier_sweep(2, 3, harmonic_prior(3), [0.5, lam]),
        ):
            with pytest.raises(ValueError, match="lambda weight"):
                use()


@pytest.mark.skipif(not os.environ.get("STOPPRED_RUN_SLOW"), reason="full-scale run; set STOPPRED_RUN_SLOW=1")
def test_full_scale_excludes_best_of_both():
    # full-scale reproduction (about 3 minutes): the frontier at lambda =
    # 0.5 cuts below the point combining the best consistency 0.5801 with
    # the best robustness 1/e
    prior = harmonic_prior(1024)
    model = build_polytope(30, 1024, prior)
    sol = solve_lp(model, 0.5)
    assert 0.5 * 0.5801 + 0.5 * 0.3679 > sol.objective
