"""Factor-revealing linear program bounding the win-probability trade-off.

A stopping rule facing a discrete predicted prior over {1..K} and the family
of its truncations to {1..k} can be summarized, without loss, by a
"minor-oblivious" table: the probability of accepting at step t given that
the current value equals the running maximum level l.  Equivalently, by the
rejection table

    Rej_t(l) = P[no acceptance through step t | max of first t values = l].

With Delta^t(l) := F(l)^t - F(l-1)^t (Delta^0(l) := 1{l=1}, 0^0 = 0), the
win probability under the truncation to {1..k} is a fixed linear expression
in the rejection table, and the feasible tables form a polytope.  Maximizing
lambda * alpha + (1 - lambda) * beta over that polytope therefore upper
bounds every achievable (consistency, robustness) pair; sweeping lambda
traces the hardness frontier.

The model is assembled sparsely with auxiliary variables, each scaled by
the power of F that bounds it:

    p_{t,l} = sum_{m <= l} Delta^t(m) y_{t,m} / F(l)^t      (prefix sums)
    v_l     = the level-l win contribution / F(l)^n
    b_l     = win probability under the truncation to {1..l}

so row lengths stay O(1) or O(n), every coefficient lies in [0, 1] (the
unscaled rows carry factors down to F(1)^n, which sink below solver
tolerances at full scale), and the robustness rows read beta <= b_l.
The polytope does not depend on lambda, so build_polytope takes none: lambda
enters only as the alpha and beta costs, passed to solve_lp, frontier_sweep
or export_lp.  Its matrices are Csr, a compressed-sparse-row triple with
the matrix-vector product the solution check needs.  Solving goes through
the HiGHS binding bundled with scipy, loaded from its extension file alone
(scipy.optimize's package imports are not run) and set up as
linprog(method="highs") sets it up.  A lambda sweep hands HiGHS
the polytope once and changes only those two costs, so each optimal basis
stays primal feasible for the next lambda and the simplex resumes from it.
export_lp writes the model with a lambda's objective in the standard LP
text format for external solvers.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np
import scipy

from .priors import DiscretePrior

_HIGHS_MODULE = "scipy.optimize._highspy._core"  # the HiGHS binding linprog(method="highs") drives


def _load_highs(directory):
    """scipy's HiGHS binding, loaded from its extension file in directory.

    Importing it by name would first run scipy.optimize's package imports
    (linprog and the rest of scipy.optimize, with scipy.sparse), which the
    LP here never uses.  The module is registered under its own name, so a
    later ``import scipy.optimize`` reuses it, and an earlier one is reused
    here.
    """
    if _HIGHS_MODULE in sys.modules:
        return sys.modules[_HIGHS_MODULE]
    spec = importlib.machinery.PathFinder.find_spec(_HIGHS_MODULE, [os.fspath(directory)])
    if spec is None:
        raise ImportError(f"{_HIGHS_MODULE} not found in {directory}; stoppred.hardness needs scipy>=1.15")
    module = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS_MODULE] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_HIGHS_MODULE]
        raise
    return module


_highs = _load_highs(os.path.join(scipy.__path__[0], "optimize", "_highspy"))

__all__ = [
    "harmonic_prior",
    "Csr",
    "PolytopeModel",
    "build_polytope",
    "LpSolution",
    "solve_lp",
    "export_lp",
    "export_lp_objective",
    "export_lp_body",
    "parse_lp",
    "FrontierPoint",
    "frontier_sweep",
    "delta_table",
    "win_prob_by_truncation",
    "acc_to_rej",
    "rej_to_acc",
    "rule_solution_vector",
    "brute_force_win_prob",
    "random_rule",
]

FEASIBILITY_TOL = 1e-7  # largest constraint or bound violation a solution may show


def harmonic_prior(K):
    """Discrete prior with pmf proportional to 1/k on {1..K}."""
    if int(K) != K or K < 1:
        raise ValueError("need integer K >= 1")
    w = 1.0 / np.arange(1, K + 1)
    return DiscretePrior(w / w.sum())


def _pmf_array(pmf):
    if isinstance(pmf, DiscretePrior):
        return pmf.pmf
    arr = np.asarray(pmf, dtype=float)
    DiscretePrior(arr)  # reuse the validation
    return arr


def _cdf_pair(pmf):
    """F(l) and F(l-1) for l = 1..K, with F(K) set to exactly 1."""
    F = np.cumsum(pmf)
    F[-1] = 1.0
    return F, np.concatenate(([0.0], F[:-1]))


def _check_lambda(lam):
    """lam as a float, or a ValueError if it lies outside [0, 1]."""
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda weight must lie in [0, 1]")
    return lam


def delta_table(pmf, n):
    """Delta^t(l) for t = 0..n as an (n+1, K) array.

    Delta^t(l) = F(l)^t - F(l-1)^t, computed as F(l)^t * (-expm1(t * log(
    F(l-1)/F(l)))) to avoid the subtractive cancellation at large l.
    """
    pmf = _pmf_array(pmf)
    K = len(pmf)
    F, Fm1 = _cdf_pair(pmf)
    delta = np.zeros((n + 1, K))
    delta[0, 0] = 1.0
    with np.errstate(divide="ignore"):
        logratio = np.where(Fm1 > 0.0, np.log(np.maximum(Fm1, 1e-300) / F), -np.inf)
    for t in range(1, n + 1):
        delta[t] = F**t * -np.expm1(t * logratio)
    return delta


@dataclass(frozen=True)
class Csr:
    """A sparse matrix in compressed sparse rows, scipy's csr_matrix layout.

    Row r holds the entries data[indptr[r]:indptr[r+1]] in the columns
    indices[indptr[r]:indptr[r+1]], in increasing column order, with no
    column twice.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    @property
    def nnz(self):
        return len(self.data)

    def rows(self):
        """The row number of each entry."""
        return np.repeat(np.arange(self.shape[0], dtype=self.indices.dtype), np.diff(self.indptr))

    def __matmul__(self, x):
        return np.bincount(self.rows(), weights=self.data * x[self.indices], minlength=self.shape[0])

    def toarray(self):
        dense = np.zeros(self.shape)
        dense[self.rows(), self.indices] = self.data
        return dense


@dataclass(frozen=True)
class PolytopeModel:
    """Assembled polytope; the LP maximizes lam * alpha + (1 - lam) * beta over it."""

    n: int
    K: int
    pmf: np.ndarray
    a_ub: Csr
    b_ub: np.ndarray
    a_eq: Csr
    b_eq: np.ndarray
    bounds: list
    col_names: list
    row_names_ub: list
    row_names_eq: list

    @property
    def num_vars(self):
        return len(self.col_names)


def _slots(shape, cols, vals, present):
    """One family of constraint rows as (columns, values, present) tables.

    Row r of a table holds the r-th row of the family (rows in C order over
    the grid ``shape``) and slot j its j-th possible entry: cols[j], vals[j]
    and present[j], each broadcast over the grid.  A slot whose present flag
    is false (say, the l - 1 term at l = 1) is not an entry of that row.
    """

    def table(parts):
        return np.stack([np.broadcast_to(x, shape) for x in parts], axis=-1).reshape(-1, len(parts))

    return table(cols), table(vals), table(present)


def _csr_from_slots(families, ncols):
    """Csr matrix of the families' rows in turn, entries in column order."""
    counts = np.concatenate([m.sum(axis=1) for _, _, m in families])
    indptr = np.zeros(len(counts) + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    indices = np.concatenate([cols[m] for cols, _, m in families]).astype(np.int32)
    data = np.concatenate([vals[m] for _, vals, m in families])
    order = np.lexsort((indices, np.repeat(np.arange(len(counts)), counts)))
    return Csr(indptr, indices[order], data[order], (len(counts), ncols))


def build_polytope(n, K, pmf):
    """Assemble the polytope for n steps over support {1..K}.

    Columns: the rejection table y_{t,l} (t in [n]) in [0,1], the scaled
    prefix sums p_{t,l} = sum_{m<=l} Delta^t(m) y_{t,m} / F(l)^t in [0,1]
    (t in [n-1]), the scaled per-level win contributions v_l, the cumulative
    win probabilities b_l under the truncation to {1..l} (so the robustness
    rows read beta <= b_l), then alpha and beta.  The t = 0 table is fixed
    at 1 and folded into the right-hand sides.

    The scaling by powers of F keeps every coefficient inside [0, 1]; the
    unscaled rows carry factors down to F(1)^n, which underflow the
    solver's feasibility tolerance at full scale and silently void the
    robustness rows.
    """
    n = int(n)
    K = int(K)
    if n < 1 or K < 1:
        raise ValueError("need n >= 1 and K >= 1")
    pmf = _pmf_array(pmf)
    if len(pmf) != K:
        raise ValueError("pmf length must equal K")
    if np.any(pmf <= 0.0):
        raise ValueError("the truncation family needs strictly positive pmf entries")
    F, Fm1 = _cdf_pair(pmf)
    ratio = Fm1 / F  # F(l-1)/F(l), zero at l = 1
    # D[t, l] = Delta^t(l) / F(l)^t = 1 - ratio^t, with D[0, l] = 1{l = 1}
    D = np.zeros((n + 1, K))
    D[0, 0] = 1.0
    with np.errstate(divide="ignore"):
        logratio = np.where(ratio > 0.0, np.log(np.maximum(ratio, 1e-300)), -np.inf)
    for t in range(1, n + 1):
        D[t] = -np.expm1(t * logratio)
    hazard = pmf / F  # f(l)/F(l) = D[1, l]
    # R[t - 1, l - 1] = ratio_l^t by scalar pow: numpy's vectorized power can
    # differ from it in the last bit, and the model is pinned bit for bit
    ratios = ratio.tolist()
    R = np.array([[r**t for r in ratios] for t in range(1, n + 1)])

    # column numbers: y_{t,l} = y[t-1, l-1], p_{t,l} = y[t-1, l-1] + n K,
    # then v_l, b_l, alpha and beta; seen from y_{t,l}, y_{t-1,l} is y - K
    # and p_{t-1,l} is y + (n - 1) K; seen from p_{t,l}, p_{t,l-1} is p - 1
    y = np.arange(n * K).reshape(n, K)
    p = y[: n - 1] + n * K
    v = (2 * n - 1) * K + np.arange(K)
    b = 2 * n * K + np.arange(K)
    ialpha = (2 * n + 1) * K
    ibeta = ialpha + 1
    nvars = ibeta + 1
    later_level = np.arange(K) > 0  # l > 1
    later_step = (np.arange(n) > 0)[:, None]  # t > 1

    col_names = (
        [f"y_{t}_{l}" for t in range(1, n + 1) for l in range(1, K + 1)]
        + [f"p_{t}_{l}" for t in range(1, n) for l in range(1, K + 1)]
        + [f"v_{l}" for l in range(1, K + 1)]
        + [f"b_{l}" for l in range(1, K + 1)]
        + ["alpha", "beta"]
    )

    # v_l = sum_t [hazard_l p_{t-1,l} + D[t-1,l] ratio_l y_{t-1,l} - D[t,l] y_{t,l}]
    # gathered per tau: y_{tau,l} carries D[tau,l] (1 - ratio_l) below tau = n
    vcoef = np.vstack((D[1:n] - D[1:n] * ratio, D[n:]))
    a_eq = _csr_from_slots(
        [
            # pdef: p_{t,l} = ratio_l^t p_{t,l-1} + D[t,l] y_{t,l}
            _slots((n - 1, K), (p, y[: n - 1], p - 1), (1.0, -D[1:n], -R[: n - 1]), (True, True, later_level)),
            # vdef, with the t = 1 terms (p_{0,l} = 1) on the right-hand side
            _slots((K,), (v, *p, *y), (1.0, *[-hazard] * (n - 1), *vcoef), (True,) * 2 * n),
            # bdef: b_l = ratio_l^n b_{l-1} + v_l
            _slots((K,), (b, v, b - 1), (1.0, -1.0, -R[n - 1]), (True, True, later_level)),
        ],
        nvars,
    )
    b_eq = np.concatenate((np.zeros((n - 1) * K), hazard, np.zeros(K)))
    row_names_eq = (
        [f"pdef_{t}_{l}" for t in range(1, n) for l in range(1, K + 1)]
        + [f"vdef_{l}" for l in range(1, K + 1)]
        + [f"bdef_{l}" for l in range(1, K + 1)]
    )

    a_ub = _csr_from_slots(
        [
            # slo: D[t-1,l] ratio_l y_{t-1,l} <= D[t,l] y_{t,l}
            _slots((n, K), (y, y - K), (-D[1:], D[:n] * ratio), (True, later_step)),
            # sup: D[t,l] y_{t,l} <= D[t-1,l] ratio_l y_{t-1,l} + hazard_l p_{t-1,l},
            # with p_{0,l} = 1 on the right-hand side at t = 1
            _slots(
                (n, K), (y, y - K, y + (n - 1) * K), (D[1:], -D[:n] * ratio, -hazard), (True, later_step, later_step)
            ),
            # cons: alpha <= b_K, and rob: beta <= b_k for every k
            _slots((1,), (ialpha, b[-1]), (1.0, -1.0), (True, True)),
            _slots((K,), (ibeta, b), (1.0, -1.0), (True, True)),
        ],
        nvars,
    )
    b_ub = np.concatenate((np.zeros(n * K), hazard, np.zeros((n - 1) * K), [0.0], np.zeros(K)))
    row_names_ub = (
        [f"slo_{t}_{l}" for t in range(1, n + 1) for l in range(1, K + 1)]
        + [f"sup_{t}_{l}" for t in range(1, n + 1) for l in range(1, K + 1)]
        + ["cons"]
        + [f"rob_{k}" for k in range(1, K + 1)]
    )

    bounds = (
        [(0.0, 1.0)] * (n * K)
        + [(0.0, 1.0)] * ((n - 1) * K)
        + [(None, None)] * (2 * K)
        + [(None, None), (None, None)]
    )
    return PolytopeModel(
        n=n,
        K=K,
        pmf=pmf,
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        col_names=col_names,
        row_names_ub=row_names_ub,
        row_names_eq=row_names_eq,
    )


@dataclass(frozen=True)
class LpSolution:
    lam: float
    objective: float
    alpha: float
    beta: float
    y: np.ndarray


class LpError(ArithmeticError):
    """The LP solve failed or its solution did not check out."""


def _colwise(model):
    """The start, index and value arrays of a_ub stacked over a_eq, column by column.

    Within a column the entries keep their row order, as in scipy's
    ``vstack((a_ub, a_eq)).tocsc()``.
    """
    a_ub, a_eq = model.a_ub, model.a_eq
    cols = np.concatenate((a_ub.indices, a_eq.indices))
    order = np.argsort(cols, kind="stable")
    start = np.zeros(model.num_vars + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=model.num_vars), out=start[1:])
    index = np.concatenate((a_ub.rows(), a_eq.rows() + a_ub.shape[0]))[order]
    value = np.concatenate((a_ub.data, a_eq.data))[order]
    return start, index, value


def _highs_instance(model):
    """A HiGHS instance holding the model at zero cost, with linprog(method="highs")'s options."""
    start, index, value = _colwise(model)
    lower, upper = np.array(
        [(-np.inf if lo is None else lo, np.inf if hi is None else hi) for lo, hi in model.bounds]
    ).T
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = model.num_vars
    lp.num_row_ = lp.a_matrix_.num_row_ = model.a_ub.shape[0] + model.a_eq.shape[0]
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = start
    lp.a_matrix_.index_ = index
    lp.a_matrix_.value_ = value
    lp.col_cost_ = np.zeros(model.num_vars)
    lp.col_lower_ = lower
    lp.col_upper_ = upper
    lp.row_lower_ = np.concatenate((np.full(len(model.b_ub), -np.inf), model.b_eq))
    lp.row_upper_ = np.concatenate((model.b_ub, model.b_eq))
    highs = _highs._Highs()
    for option, value in (("presolve", "on"), ("output_flag", False), ("log_to_console", False)):
        highs.setOptionValue(option, value)
    highs.passModel(lp)
    return highs, lower, upper


def _read_solution(highs, model, lam, lower, upper):
    """Check the solve HiGHS just finished and read back the envelope point.

    alpha and beta are recomputed from the optimal rejection table (they are
    the win-probability expressions at y*), which pins them even when their
    objective weight is 0.
    """
    status = highs.getModelStatus()
    if status == _highs.HighsModelStatus.kUnbounded:
        raise LpError("LP reported unbounded; alpha and beta are bounded by 1, so the model is broken")
    if status == _highs.HighsModelStatus.kInfeasible:
        raise LpError("LP reported infeasible; the reject-all table is always feasible, so the model is broken")
    if status != _highs.HighsModelStatus.kOptimal:
        raise LpError(f"LP solve failed: {highs.modelStatusToString(status)}")
    x = np.array(highs.getSolution().col_value)
    resid = max(
        float(np.max(model.a_ub @ x - model.b_ub, initial=0.0)),
        float(np.max(np.abs(model.a_eq @ x - model.b_eq), initial=0.0)),
        float(np.max(lower - x, initial=0.0)),
        float(np.max(x - upper, initial=0.0)),
    )
    if resid > FEASIBILITY_TOL:
        raise LpError(f"solution violates constraints by {resid:.3e}")
    y = x[: model.n * model.K].reshape(model.n, model.K)
    exprs = win_prob_by_truncation(y, model.pmf)
    alpha = float(exprs[-1])
    beta = float(exprs.min())
    objective = -highs.getInfo().objective_function_value
    if abs(lam * alpha + (1.0 - lam) * beta - objective) > 1e-6:
        raise LpError("recomputed envelope point disagrees with the LP objective")
    return LpSolution(lam=lam, objective=objective, alpha=alpha, beta=beta, y=y)


def _solve_lambdas(model, lambdas):
    """Solve the model at each lambda in turn on one HiGHS instance.

    Each lambda sets the alpha and beta costs before its run, so every run
    after the first resumes from the previous optimal basis.  That basis is
    still primal feasible, as only costs changed, so the re-solves use the
    primal simplex; the first, cold run keeps linprog's default strategy.
    Returns, in the given order, an LpSolution or the LpError that voids it.
    """
    highs, lower, upper = _highs_instance(model)
    cols = np.array([model.num_vars - 2, model.num_vars - 1], dtype=np.int32)
    results = []
    for lam in lambdas:
        highs.changeColsCost(2, cols, np.array([-lam, -(1.0 - lam)]))
        highs.run()
        highs.setOptionValue("simplex_strategy", 4)  # primal, from the second run on
        try:
            results.append(_read_solution(highs, model, lam, lower, upper))
        except LpError as exc:
            results.append(exc)
    return results


def solve_lp(model, lam):
    """Maximize lam * alpha + (1 - lam) * beta over the model and read back the envelope point.

    alpha and beta are recomputed from the optimal rejection table; a
    non-optimal status, a residual above FEASIBILITY_TOL or a mismatched
    envelope raises LpError.
    """
    (result,) = _solve_lambdas(model, [_check_lambda(lam)])
    if isinstance(result, LpError):
        raise result
    return result


@dataclass(frozen=True)
class FrontierPoint:
    lam: float
    lp_star: float
    alpha_star: float
    beta_star: float
    error: str | None = None


def frontier_sweep(n, K, pmf, lambdas):
    """Solve the LP across a lambda grid; per-point failures become gaps.

    Every lambda is checked before anything is built.  The distinct lambdas
    are solved in descending order on one HiGHS instance (the lambda = 1
    cold solve is the cheapest), and the points come back in input order.
    """
    lambdas = [_check_lambda(lam) for lam in lambdas]
    model = build_polytope(n, K, pmf)
    descending = sorted(set(lambdas), reverse=True)
    solved = dict(zip(descending, _solve_lambdas(model, descending)))
    points = []
    for lam in lambdas:
        sol = solved[lam]
        if isinstance(sol, LpError):
            points.append(FrontierPoint(lam, math.nan, math.nan, math.nan, str(sol)))
        else:
            points.append(FrontierPoint(lam, sol.objective, sol.alpha, sol.beta))
    return points


# ---------------------------------------------------------------------------
# Rule representations and oracles


def random_rule(n, K, rng):
    """Acceptance table with i.i.d. uniform entries."""
    return rng.random((n, K))


def _rej_products(prev_rej, delta_prev):
    return np.cumsum(delta_prev * prev_rej)


def acc_to_rej(acc, pmf):
    """Forward induction from acceptance to rejection probabilities.

    Where the conditioning event has zero probability (delta^t(l) = 0) the
    entry is vacuous and set to 1; where the best-so-far arrival mass is
    zero the acceptance entry is irrelevant and drops out on its own.
    """
    acc = np.asarray(acc, dtype=float)
    if np.any(acc < 0.0) or np.any(acc > 1.0):
        raise ValueError("acceptance entries must lie in [0, 1]")
    n, K = acc.shape
    pmf = _pmf_array(pmf)
    _, Fm1 = _cdf_pair(pmf)
    delta = delta_table(pmf, n)
    rej = np.empty_like(acc)
    prev = np.ones(K)
    for t in range(1, n + 1):
        arrivals = pmf * _rej_products(prev, delta[t - 1])
        num = prev * delta[t - 1] * Fm1 + (1.0 - acc[t - 1]) * arrivals
        with np.errstate(invalid="ignore", divide="ignore"):
            row = np.where(delta[t] > 0.0, num / np.where(delta[t] > 0.0, delta[t], 1.0), 1.0)
        rej[t - 1] = np.clip(row, 0.0, 1.0)
        prev = rej[t - 1]
    return rej


def rej_to_acc(rej, pmf):
    """Inverse of acc_to_rej; entries with zero arrival mass map to 0."""
    rej = np.asarray(rej, dtype=float)
    n, K = rej.shape
    pmf = _pmf_array(pmf)
    _, Fm1 = _cdf_pair(pmf)
    delta = delta_table(pmf, n)
    acc = np.empty_like(rej)
    prev = np.ones(K)
    for t in range(1, n + 1):
        den = pmf * _rej_products(prev, delta[t - 1])
        num = rej[t - 1] * delta[t] - prev * delta[t - 1] * Fm1
        with np.errstate(invalid="ignore", divide="ignore"):
            acc[t - 1] = np.where(den > 0.0, 1.0 - num / np.where(den > 0.0, den, 1.0), 0.0)
        prev = rej[t - 1]
    return acc


def win_prob_by_truncation(rej, pmf):
    """Win probability of a rejection table under each truncated prior.

    Entry k - 1 is the linear expression behind the k-th robustness row
    (k = K gives the consistency row), evaluated at the table.
    """
    rej = np.asarray(rej, dtype=float)
    n, K = rej.shape
    pmf = _pmf_array(pmf)
    F, Fm1 = _cdf_pair(pmf)
    delta = delta_table(pmf, n)
    rej_ext = np.vstack([np.ones(K), rej])
    V = np.zeros(K)
    for t in range(1, n + 1):
        arrivals = pmf * np.cumsum(delta[t - 1] * rej_ext[t - 1])
        w = arrivals + delta[t - 1] * Fm1 * rej_ext[t - 1] - delta[t] * rej_ext[t]
        V += F ** (n - t) * w
    with np.errstate(divide="ignore"):
        return np.cumsum(V) / F**n


def rule_solution_vector(model, rej):
    """Full variable vector (y, scaled prefixes, wins, cumulatives, alpha,
    beta) induced by a rejection table; feasible whenever the table comes
    from a genuine rule."""
    rej = np.asarray(rej, dtype=float)
    n, K = model.n, model.K
    if rej.shape != (n, K):
        raise ValueError("rejection table shape does not match the model")
    pmf = model.pmf
    F, _ = _cdf_pair(pmf)
    delta = delta_table(pmf, n)
    x = np.zeros(model.num_vars)
    x[: n * K] = rej.ravel()
    for t in range(1, n):
        x[n * K + (t - 1) * K : n * K + t * K] = np.cumsum(delta[t] * rej[t - 1]) / F**t
    exprs = win_prob_by_truncation(rej, pmf)
    # v_l is the l-th increment of the scaled cumulative win probabilities
    b = exprs
    v = b - np.concatenate(([0.0], b[:-1])) * np.concatenate(([0.0], (F[:-1] / F[1:]) ** n))
    x[(2 * n - 1) * K : 2 * n * K] = v
    x[2 * n * K : (2 * n + 1) * K] = b
    x[-2] = exprs[-1]
    x[-1] = exprs.min()
    return x


def brute_force_win_prob(acc, pmf, k):
    """Exhaustive win probability under the truncation to {1..k}.

    Enumerates all k**n sequences; a sequence wins at step t when the rule
    fires there, the value is best-so-far, and it ties the overall maximum
    (all-ties-win convention).  Budgeted at 1e6 sequences.
    """
    acc = np.asarray(acc, dtype=float)
    n, K = acc.shape
    k = int(k)
    if k < 1 or k > K:
        raise ValueError("truncation level outside the support")
    if k**n > 1_000_000:
        raise ValueError("enumeration budget exceeded (k**n > 1e6)")
    pmf = _pmf_array(pmf)
    fk = pmf[:k] / pmf[:k].sum()
    seqs = np.indices((k,) * n).reshape(n, -1).T + 1  # (k**n, n)
    probs = fk[seqs - 1].prod(axis=1)
    prefmax = np.maximum.accumulate(seqs, axis=1)
    best = seqs == prefmax
    fire = np.where(best, acc[np.arange(n)[None, :], seqs - 1], 0.0)
    surv = np.cumprod(1.0 - fire, axis=1)
    surv = np.concatenate([np.ones((len(seqs), 1)), surv[:, :-1]], axis=1)
    is_max = seqs == seqs.max(axis=1, keepdims=True)
    return float(np.sum(probs * np.sum(surv * fire * is_max, axis=1)))


# ---------------------------------------------------------------------------
# LP text format


def _fmt(x):
    return f"{x:.17g}"


def _terms_to_str(pairs):
    parts = []
    for name, coef in pairs:
        if coef == 0.0:
            continue
        sign = "-" if coef < 0.0 else "+"
        if not parts and sign == "+":
            parts.append(f"{_fmt(coef)} {name}")
        else:
            parts.append(f"{sign} {_fmt(abs(coef))} {name}")
    return " ".join(parts) if parts else "0 " + pairs[0][0]


def export_lp(model, lam):
    """Serialize the LP at lambda lam in the standard LP text format."""
    return export_lp_objective(lam) + export_lp_body(model)


def export_lp_objective(lam):
    """The objective section of ``export_lp``, the only part that depends on lambda."""
    lam = _check_lambda(lam)
    return f"Maximize\n obj: {_terms_to_str([('alpha', lam), ('beta', 1.0 - lam)])}\n"


def export_lp_body(model):
    """The constraint and bounds sections of ``export_lp``, shared by every lambda."""
    names = model.col_names
    lines = ["Subject To"]
    for row_names, a, rhs, sense in (
        (model.row_names_ub, model.a_ub, model.b_ub, "<="),
        (model.row_names_eq, model.a_eq, model.b_eq, "="),
    ):
        exprs = _row_exprs(a, names)
        lines += [f" {name}: {expr} {sense} {_fmt(r)}" for name, expr, r in zip(row_names, exprs, rhs.tolist())]
    lines.append("Bounds")
    for name, (lo, hi) in zip(names, model.bounds):
        if lo is None and hi is None:
            lines.append(f" {name} free")
        elif hi is None:
            lines.append(f" {name} >= {_fmt(lo)}")
        else:
            lines.append(f" {_fmt(lo)} <= {name} <= {_fmt(hi)}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _row_exprs(csr, names):
    """Each row's terms as _terms_to_str writes them, for a whole Csr matrix.

    Zero coefficients are dropped; a row's first term has no sign if it is
    positive, and a row with no term left reads "0 <first column>".
    """
    keep = csr.data != 0.0
    coefs = csr.data[keep]
    # kept[r]: the terms kept before row r, so row r's terms are kept[r]:kept[r+1]
    kept = np.concatenate(([0], np.cumsum(keep)))[csr.indptr]
    first = np.zeros(len(coefs) + 1, dtype=bool)
    first[kept] = True
    signs = np.where(coefs < 0.0, "- ", np.where(first[:-1], "", "+ ")).tolist()
    terms = [
        f"{sign}{mag:.17g} {names[col]}"
        for sign, mag, col in zip(signs, np.abs(coefs).tolist(), csr.indices[keep].tolist())
    ]
    return [
        " ".join(terms[lo:hi]) if hi > lo else "0 " + names[csr.indices[start]]
        for lo, hi, start in zip(kept[:-1].tolist(), kept[1:].tolist(), csr.indptr[:-1].tolist())
    ]


_TERM_RE = re.compile(r"([+-])?\s*(\d[\d.eE+-]*)?\s*([A-Za-z]\w*)")


def _parse_terms(expr):
    terms = {}
    for sign, coef, name in _TERM_RE.findall(expr):
        value = float(coef) if coef else 1.0
        if sign == "-":
            value = -value
        terms[name] = terms.get(name, 0.0) + value
    return terms


def parse_lp(text):
    """Parse the canonical export format back into objective/rows/bounds."""
    section = None
    objective = {}
    rows = {}
    bounds = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        lowered = line.lower()
        if lowered in ("maximize", "minimize"):
            section = "obj"
            continue
        if lowered == "subject to":
            section = "rows"
            continue
        if lowered == "bounds":
            section = "bounds"
            continue
        if lowered == "end":
            break
        if section == "obj":
            _, expr = line.split(":", 1)
            objective = _parse_terms(expr)
        elif section == "rows":
            name, rest = line.split(":", 1)
            if "<=" in rest:
                expr, rhs = rest.split("<=")
                sense = "<="
            elif ">=" in rest:
                expr, rhs = rest.split(">=")
                sense = ">="
            else:
                expr, rhs = rest.split("=")
                sense = "="
            rows[name.strip()] = (_parse_terms(expr), sense, float(rhs))
        elif section == "bounds":
            if line.endswith(" free"):
                bounds[line[:-5].strip()] = (None, None)
            elif "<=" in line:
                lo, name, hi = line.split("<=")
                bounds[name.strip()] = (float(lo), float(hi))
            elif ">=" in line:
                name, lo = line.split(">=")
                bounds[name.strip()] = (float(lo), None)
    return {"objective": objective, "rows": rows, "bounds": bounds}
